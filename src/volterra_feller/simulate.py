"""Monte Carlo cross checks for the boundary verdicts.

Two discretizations of X = x0 + K * (b(X) dt + sigma(X) dW):

* ``conv_euler``: the convolution Euler scheme.  Step k accumulates the
  increment B_k = b(X^_k) dt + sigma(X^_k) dW_k (X^ is the family's
  truncation of the raw state into the closed interval) and reads off
  X_{k+1} = x0 + sum_{j<=k} K(t_{k+1} - t_j) B_j.  Constant kernels reduce
  this to a running sum, and sum-of-exponentials kernels to an exact
  per-rate recursion with factors exp(-rate dt), so neither needs the
  quadratic-cost history dot product that general kernels fall back to.

* ``markov_lift``: the finite-dimensional lift for sum-of-exponentials
  kernels.  Each rate x_n carries a factor Y^n with explicit Euler updates
  Y^n_{k+1} = (1 - x_n dt) Y^n_k + B_k and X = x0 + sum_n w_n Y^n.  The
  explicit factor (1 - x_n dt), not exp(-x_n dt), is deliberate: it keeps
  the lift an honest first-order scheme whose gap against conv_euler
  shrinks linearly in dt instead of collapsing to rounding noise.

Paths draw their increments from counter-based generators keyed by
(seed, path index), so results are bit-reproducible for a fixed seed and
path count no matter how paths are blocked or threaded.

A path that reaches hit_eps of a finite boundary, or blowup_cap when the
boundary is infinite, is recorded with its grid hit time and frozen; the
raw pre-truncation state decides hits, since the truncation would otherwise
mask every crossing.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np

from .errors import PreconditionError

__all__ = [
    "SimConfig",
    "SimulationReport",
    "simulate",
    "verdict_crosscheck",
    "scheme_discrepancy",
]

_SCHEMES = ("conv_euler", "markov_lift")
_BLOCK = 512


def _thread_count():
    raw = os.environ.get("VOLTERRA_FELLER_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        n = min(os.cpu_count() or 1, 4)
    return n


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    hit_eps : distance from a finite boundary that counts as a hit; defaults
        to 1e-4 times the interval width (1e-4 absolute when unbounded).
    blowup_cap : |X| level that counts as hitting an infinite boundary.
    """

    dt: float
    horizon: float
    n_paths: int
    scheme: str = "conv_euler"
    seed: int = 0
    hit_eps: float | None = None
    blowup_cap: float = 1e6

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (self.horizon >= self.dt):
            raise ValueError("horizon must cover at least one step")
        if int(self.n_paths) != self.n_paths or self.n_paths < 1:
            raise ValueError(f"n_paths must be a positive integer, got {self.n_paths}")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.hit_eps is not None and not self.hit_eps > 0.0:
            raise ValueError(f"hit_eps must be positive, got {self.hit_eps}")
        if not self.blowup_cap > 0.0:
            raise ValueError(f"blowup_cap must be positive, got {self.blowup_cap}")
        object.__setattr__(self, "n_paths", int(self.n_paths))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n_steps(self):
        return max(1, int(round(self.horizon / self.dt)))


@dataclass(frozen=True)
class SimulationReport:
    """Aggregates over all simulated paths.

    Hit-time quantiles are over paths that hit either boundary; terminal
    statistics are over the surviving (never-hit) paths.  Quantile and
    terminal fields are None when their population is empty.
    """

    scheme: str
    dt: float
    horizon: float
    n_paths: int
    seed: int
    hit_eps: float
    blowup_cap: float
    n_hit_left: int
    n_hit_right: int
    hit_fraction_left: float
    hit_fraction_right: float
    hit_fraction: float
    hit_time_p10: float | None
    hit_time_p50: float | None
    hit_time_p90: float | None
    terminal_mean: float | None
    terminal_var: float | None

    def as_dict(self):
        return asdict(self)


def _resolve_hit_eps(model, config):
    if config.hit_eps is not None:
        return float(config.hit_eps)
    l, r = model.interval
    if math.isfinite(l) and math.isfinite(r):
        return 1e-4 * (r - l)
    return 1e-4


def _path_noise(seed, path_index, n_steps, dt):
    rng = np.random.Generator(np.random.Philox(key=[seed, path_index]))
    return rng.standard_normal(n_steps) * math.sqrt(dt)


def _block_noise(seed, start, block, n_steps, dt):
    out = np.empty((block, n_steps))
    for i in range(block):
        out[i] = _path_noise(seed, start + i, n_steps, dt)
    return out


def _advance_block(model, kernel, scheme, dW, dt, hit_eps, blowup_cap, detect_hits=True):
    """Run one block of paths; returns (terminal X, hit side, hit time).

    hit side is -1 / 0 / +1 for left / none / right.  Paths freeze at their
    hit value.
    """
    block, n_steps = dW.shape
    l, r = model.interval
    x0 = float(model.x0)
    X = np.full(block, x0)
    active = np.ones(block, dtype=bool)
    hit_side = np.zeros(block, dtype=np.int8)
    hit_time = np.full(block, np.nan)

    form = getattr(kernel, "exp_form", lambda: None)()
    if form is None:
        if scheme == "markov_lift":
            raise PreconditionError(
                "markov_lift needs a constant or sum-of-exponentials kernel"
            )
        # general kernel: quadratic-cost history convolution
        step = "history"
        kvals = kernel.eval(dt * np.arange(1, n_steps + 1))
        B_hist = np.zeros((n_steps, block))
    else:
        weights, rates = form
        if scheme == "markov_lift":
            step = "lift"
            factors = 1.0 - rates * dt
            Y = np.zeros((len(rates), block))
        elif not np.any(rates):
            # constant kernel: the per-rate recursion reduces to a running sum
            step = "sum"
            level = weights.sum()
            S = np.zeros(block)
        else:
            step = "exp"
            decay = np.exp(-rates * dt)
            Z = np.zeros((len(rates), block))

    for k in range(n_steps):
        Xh = model.truncate(X)
        B = model.drift(Xh) * dt + model.diffusion(Xh) * dW[:, k]
        B[~active] = 0.0
        if step == "lift":
            Y = factors[:, None] * Y + B[None, :]
            X_new = x0 + weights @ Y
        elif step == "sum":
            S = S + B
            X_new = x0 + level * S
        elif step == "exp":
            Z = decay[:, None] * (Z + B[None, :])
            X_new = x0 + weights @ Z
        else:
            B_hist[k] = B
            X_new = x0 + kvals[k::-1] @ B_hist[: k + 1]
        X_new = np.where(active, X_new, X)
        if detect_hits:
            if math.isfinite(l):
                left = X_new <= l + hit_eps
            else:
                left = X_new <= -blowup_cap
            if math.isfinite(r):
                right = X_new >= r - hit_eps
            else:
                right = X_new >= blowup_cap
            newly_left = active & left
            newly_right = active & right & ~newly_left
            t_now = (k + 1) * dt
            hit_side[newly_left] = -1
            hit_side[newly_right] = 1
            hit_time[newly_left | newly_right] = t_now
            active = active & ~(newly_left | newly_right)
        X = X_new
    return X, hit_side, hit_time


def simulate(model, kernel, config):
    """Simulate and aggregate boundary hits; see the module docstring."""
    if not isinstance(config, SimConfig):
        raise TypeError("config must be a SimConfig")
    hit_eps = _resolve_hit_eps(model, config)
    if config.blowup_cap <= max(abs(model.x0), 1.0):
        raise ValueError(
            f"blowup_cap {config.blowup_cap} must exceed max(|x0|, 1)"
        )
    n_steps = config.n_steps
    n_paths = config.n_paths
    X = np.empty(n_paths)
    hit_side = np.empty(n_paths, dtype=np.int8)
    hit_time = np.empty(n_paths)

    starts = list(range(0, n_paths, _BLOCK))

    def run(start):
        block = min(_BLOCK, n_paths - start)
        dW = _block_noise(config.seed, start, block, n_steps, config.dt)
        return start, _advance_block(
            model, kernel, config.scheme, dW, config.dt, hit_eps, config.blowup_cap
        )

    threads = _thread_count()
    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, starts))
    else:
        results = [run(s) for s in starts]
    for start, (bx, bs, bt) in results:
        stop = start + len(bx)
        X[start:stop] = bx
        hit_side[start:stop] = bs
        hit_time[start:stop] = bt

    n_left = int(np.sum(hit_side == -1))
    n_right = int(np.sum(hit_side == 1))
    hit_mask = hit_side != 0
    times = hit_time[hit_mask]
    if times.size:
        p10, p50, p90 = (float(q) for q in np.quantile(times, [0.1, 0.5, 0.9]))
    else:
        p10 = p50 = p90 = None
    survivors = X[~hit_mask]
    if survivors.size:
        t_mean = float(np.mean(survivors))
        t_var = float(np.var(survivors))
    else:
        t_mean = t_var = None
    return SimulationReport(
        scheme=config.scheme,
        dt=config.dt,
        horizon=config.horizon,
        n_paths=n_paths,
        seed=config.seed,
        hit_eps=hit_eps,
        blowup_cap=config.blowup_cap,
        n_hit_left=n_left,
        n_hit_right=n_right,
        hit_fraction_left=n_left / n_paths,
        hit_fraction_right=n_right / n_paths,
        hit_fraction=(n_left + n_right) / n_paths,
        hit_time_p10=p10,
        hit_time_p50=p50,
        hit_time_p90=p90,
        terminal_mean=t_mean,
        terminal_var=t_var,
    )


def _observed_fraction(report, boundary):
    name = getattr(boundary, "value", boundary)
    if name == "Left":
        return report.hit_fraction_left
    if name == "Right":
        return report.hit_fraction_right
    return report.hit_fraction


def verdict_crosscheck(verdicts, report, leak_tol=0.02, floor_tol=0.05):
    """Compare analytic verdicts against observed hit fractions.

    No-exit style verdicts (NoExitAS, SupBoundedAS, InfBoundedAS) are
    contradicted when the relevant hit fraction exceeds leak_tol, the Euler
    leak allowance.  ExitsWithPositiveProb agrees when the fraction reaches
    floor_tol and is merely unresolved below it (the exit probability may be
    small or the horizon short, so that is not a contradiction).  Verdicts
    carrying no path statement (NecessaryHolds, Inconclusive) are skipped.

    Returns {"consistent": bool, "checks": [...]} with one entry per
    verdict.
    """
    if not 0.0 <= leak_tol < 1.0:
        raise ValueError(f"leak_tol must lie in [0, 1), got {leak_tol}")
    if not 0.0 < floor_tol <= 1.0:
        raise ValueError(f"floor_tol must lie in (0, 1], got {floor_tol}")
    try:
        verdicts = list(verdicts)
    except TypeError:
        verdicts = [verdicts]
    checks = []
    consistent = True
    for bv in verdicts:
        name = getattr(bv.verdict, "value", bv.verdict)
        if name in ("NoExitAS", "SupBoundedAS", "InfBoundedAS"):
            if name == "SupBoundedAS":
                observed = report.hit_fraction_right
            elif name == "InfBoundedAS":
                observed = report.hit_fraction_left
            else:
                observed = _observed_fraction(report, bv.boundary)
            status = "agree" if observed <= leak_tol else "contradict"
            tol = leak_tol
        elif name == "ExitsWithPositiveProb":
            observed = _observed_fraction(report, bv.boundary)
            status = "agree" if observed >= floor_tol else "unresolved"
            tol = floor_tol
        else:
            observed = _observed_fraction(report, bv.boundary)
            status = "skipped"
            tol = math.nan
        if status == "contradict":
            consistent = False
        checks.append(
            {
                "verdict": name,
                "boundary": getattr(bv.boundary, "value", bv.boundary),
                "theorem": bv.theorem,
                "observed": float(observed),
                "tolerance": float(tol),
                "status": status,
            }
        )
    return {"consistent": consistent, "checks": checks}


def scheme_discrepancy(model, kernel, dts, horizon, n_paths=50, seed=0):
    """Terminal gap between conv_euler and markov_lift on shared noise.

    All step sizes consume the same underlying Brownian paths: increments
    are drawn once on the finest grid and block-summed up to each coarser
    dt, so the reported gaps isolate the scheme difference from Monte Carlo
    noise.  Every dt must be an integer multiple of the finest one.  Hits
    are not detected here; paths run to the horizon.

    Returns one row per dt: {"dt", "max_terminal_gap"}.
    """
    dts = sorted(float(d) for d in np.atleast_1d(np.asarray(dts, dtype=float)))
    if not dts or dts[0] <= 0.0:
        raise ValueError("dts must be positive step sizes")
    dt_fine = dts[0]
    n_fine = max(1, int(round(horizon / dt_fine)))
    rows = []
    dW_fine = _block_noise(seed, 0, n_paths, n_fine, dt_fine)
    for dt in dts:
        factor = dt / dt_fine
        if abs(factor - round(factor)) > 1e-9:
            raise ValueError(f"dt {dt} is not an integer multiple of the finest dt {dt_fine}")
        factor = int(round(factor))
        n_coarse = n_fine // factor
        dW = dW_fine[:, : n_coarse * factor].reshape(n_paths, n_coarse, factor).sum(axis=2)
        x_conv, _, _ = _advance_block(
            model, kernel, "conv_euler", dW, dt, 0.0, math.inf, detect_hits=False
        )
        x_lift, _, _ = _advance_block(
            model, kernel, "markov_lift", dW, dt, 0.0, math.inf, detect_hits=False
        )
        rows.append({"dt": dt, "max_terminal_gap": float(np.max(np.abs(x_conv - x_lift)))})
    return rows
