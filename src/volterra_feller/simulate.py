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

Each path draws its increments from one counter-based generator keyed by
(seed, path index) for the whole run, _CHUNK steps at a time; successive
draws continue its stream bit for bit, so results are bit-reproducible for a
fixed seed and path count whatever the chunk length.  Memory is bounded in
the number of steps for the running-sum and per-rate recursions: a block
holds one noise chunk and O(rates) state per path.  The history convolution
keeps every past increment, n_steps per path.

Blocks are as wide as a per-path result allows.  The running sum and
one-rate recursions are elementwise, so their blocks take up to _WIDE paths.
The history form and multi-rate sums w_n Y^n go through a BLAS product that
may round a path by its column and thread split, so they keep _BLOCK-path
blocks: results stay fixed for a given path count, BLAS build and thread count.

A path hits when its raw, pre-truncation state (the truncation would mask
every crossing) reaches hit_eps of a finite boundary, or blowup_cap when the
boundary is infinite; it reports its first grid hit time and state there.
Step k writes X over its spent noise row, and every _ROWS steps those rows
are read for first crossings, so no single step tests for hits.  Hit
paths step on in their own columns: the elementwise forms touch only their
own path, and BLAS rounds a column by its place, not by other columns' values.
"""

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import PreconditionError, check_count, check_real, check_reals

__all__ = [
    "SimConfig",
    "SimulationReport",
    "simulate",
    "verdict_crosscheck",
    "scheme_discrepancy",
]

_SCHEMES = ("conv_euler", "markov_lift")
_BLOCK = 512
# noise budget of a wide block: _WIDE x _CHUNK float64s drawn, then copied
# time-major, 2 x 32 MiB at most whatever the number of steps
_WIDE = 8192
_CHUNK = 512
# steps between hit scans: the scan's temporaries stay _ROWS x width, and a
# block whose paths have all hit steps on at most _ROWS - 1 times
_ROWS = 64


def _thread_count():
    # paths run serially; kept for the machine record of bench/worker.py
    return 1


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
        check_real("dt", self.dt, gt=0.0)
        check_real("horizon", self.horizon, ge=self.dt)
        object.__setattr__(self, "n_paths", check_count("n_paths", self.n_paths, 1))
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0, 2**64 - 1))
        if self.hit_eps is not None:
            check_real("hit_eps", self.hit_eps, gt=0.0)
        check_real("blowup_cap", self.blowup_cap, gt=0.0)

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


def _noise(seed, start, stop, n_steps, dt, chunk):
    """Yield the increments dW of paths start..stop-1, chunk steps at a time.

    Path i draws from one Philox(key=[seed, i]) generator for the whole run;
    the keys are uint64, so every seed below 2^64 keeps its own stream.
    Each chunk is scaled by sqrt(dt) and laid out time-major, (steps, paths),
    so a step reads one contiguous row.  The consumer may overwrite the
    chunk; the next one is drawn into the same buffer.
    """
    keys = np.empty((stop - start, 2), dtype=np.uint64)
    keys[:, 0] = seed
    keys[:, 1] = np.arange(start, stop)
    rngs = [np.random.Generator(np.random.Philox(key=key)) for key in keys]
    chunk = min(chunk, n_steps)
    drawn = np.empty((stop - start, chunk))
    out = np.empty((chunk, stop - start))
    scale = math.sqrt(dt)
    for k in range(0, n_steps, chunk):
        n = min(chunk, n_steps - k)
        for rng, row in zip(rngs, drawn[:, :n]):
            rng.standard_normal(n, out=row)
        yield np.multiply(drawn[:, :n].T, scale, out=out[:n])


def _convolver(kernel, form, scheme, dt, n_steps, block):
    """Pick the block's kernel recursion once; form is kernel.exp_form().

    Returns conv(k, B), which takes step k's increments B_k and returns
    (K * B)(t_{k+1}); each form keeps its own state.
    """
    if form is None:
        if scheme == "markov_lift":
            raise PreconditionError(
                "markov_lift needs a constant or sum-of-exponentials kernel"
            )
        # general kernel: quadratic-cost history convolution
        kvals = kernel.eval(dt * np.arange(1, n_steps + 1))
        B_hist = np.zeros((n_steps, block))

        def history(k, B):
            B_hist[k] = B
            return kvals[k::-1] @ B_hist[: k + 1]

        return history
    weights, rates = form
    if scheme == "conv_euler" and not np.any(rates):
        # constant kernel: the per-rate recursion reduces to a running sum
        level = weights.sum()
        S = np.zeros(block)

        def running_sum(k, B):
            nonlocal S
            S += B
            return level * S

        return running_sum
    state = np.zeros((len(rates), block))
    if scheme == "markov_lift":
        factors = (1.0 - rates * dt)[:, None]

        def lift(k, B):
            nonlocal state
            state *= factors
            state += B
            return weights @ state

        return lift
    decay = np.exp(-rates * dt)[:, None]

    def exact_exp(k, B):
        nonlocal state
        state += B
        state *= decay
        return weights @ state

    return exact_exp


def _advance_block(model, conv, noise, width, dt, levels):
    """Run one block of width paths; returns (X, hit side, hit time).

    noise yields the block's increments dW in time order, one time-major
    chunk (steps, width) at a time, and step k writes its X over the spent
    row dW_k.  After every _ROWS steps those rows are read for the first row
    where a path not yet hit lies at or beyond levels = (lo, hi).
    hit side is -1 / 0 / +1 for left / none / right; X is a hit path's value
    at its first crossing and a survivor's terminal value.  Once every path
    has hit no further noise is drawn.
    """
    lo, hi = levels
    x0 = float(model.x0)
    X = np.full(width, x0)
    active = np.ones(width, dtype=bool)
    hit_side = np.zeros(width, dtype=np.int8)
    hit_time = np.full(width, np.nan)
    hit_x = np.empty(width)
    k = 0
    # paths step on past a hit and may overflow to inf or nan there
    with np.errstate(over="ignore", invalid="ignore"):
        for dW in noise:
            for row in range(0, len(dW), _ROWS):
                rows = dW[row : row + _ROWS]
                for dW_k in rows:
                    Xh = model.truncate(X)
                    B = model.drift(Xh) * dt + model.diffusion(Xh) * dW_k
                    X = np.add(x0, conv(k, B), out=dW_k)
                    k += 1
                # rows now hold X after steps k - len(rows) + 1 .. k
                crossed = rows <= lo
                crossed |= rows >= hi
                crossed &= active
                cols = np.flatnonzero(crossed.any(axis=0))
                if cols.size:
                    first = crossed[:, cols].argmax(axis=0)
                    hit_x[cols] = rows[first, cols]
                    hit_side[cols] = np.where(hit_x[cols] <= lo, -1, 1)
                    hit_time[cols] = (k - len(rows) + 1 + first) * dt
                    active[cols] = False
                    if not active.any():
                        return hit_x, hit_side, hit_time
            # the next chunk is drawn into dW
            X = X.copy()
    return np.where(active, X, hit_x), hit_side, hit_time


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
    l, r = model.interval
    levels = (
        l + hit_eps if math.isfinite(l) else -config.blowup_cap,
        r - hit_eps if math.isfinite(r) else config.blowup_cap,
    )
    form = getattr(kernel, "exp_form", lambda: None)()
    block = _WIDE if form is not None and len(form[1]) == 1 else _BLOCK
    X = np.empty(n_paths)
    hit_side = np.empty(n_paths, dtype=np.int8)
    hit_time = np.empty(n_paths)
    for start in range(0, n_paths, block):
        stop = min(start + block, n_paths)
        # neither the noise nor the convolution state is bound to a name
        # here, so both are freed before the next block allocates its own
        X[start:stop], hit_side[start:stop], hit_time[start:stop] = _advance_block(
            model,
            _convolver(kernel, form, config.scheme, config.dt, n_steps, stop - start),
            _noise(config.seed, start, stop, n_steps, config.dt, _CHUNK),
            stop - start,
            config.dt,
            levels,
        )

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


# one-sided bound verdicts speak about their own side, whatever boundary
# they carry
_BOUND_SIDE = {"SupBoundedAS": "Right", "InfBoundedAS": "Left"}


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
    check_real("leak_tol", leak_tol, ge=0.0, lt=1.0)
    check_real("floor_tol", floor_tol, gt=0.0, le=1.0)
    try:
        verdicts = list(verdicts)
    except TypeError:
        verdicts = [verdicts]
    fractions = {
        "Left": report.hit_fraction_left,
        "Right": report.hit_fraction_right,
        "Both": report.hit_fraction,
    }
    checks = []
    for bv in verdicts:
        name = getattr(bv.verdict, "value", bv.verdict)
        boundary = getattr(bv.boundary, "value", bv.boundary)
        observed = fractions[_BOUND_SIDE.get(name, boundary)]
        if name in ("NoExitAS", "SupBoundedAS", "InfBoundedAS"):
            status = "agree" if observed <= leak_tol else "contradict"
            tol = leak_tol
        elif name == "ExitsWithPositiveProb":
            status = "agree" if observed >= floor_tol else "unresolved"
            tol = floor_tol
        else:
            status = "skipped"
            tol = math.nan
        checks.append(
            {
                "verdict": name,
                "boundary": boundary,
                "theorem": bv.theorem,
                "observed": float(observed),
                "tolerance": float(tol),
                "status": status,
            }
        )
    consistent = all(check["status"] != "contradict" for check in checks)
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
    check_real("horizon", horizon, gt=0.0)
    n_paths = check_count("n_paths", n_paths, 1)
    seed = check_count("seed", seed, 0, 2**64 - 1)
    dts = sorted(check_reals("dts", dts))
    if not dts or dts[0] <= 0.0:
        raise ValueError("dts must be positive step sizes")
    dt_fine = dts[0]
    n_fine = max(1, int(round(horizon / dt_fine)))
    rows = []
    # the whole fine grid as one chunk, back in path-major order: numpy sums
    # a contiguous axis pairwise, and that order fixes the rows' last bits
    dW_fine = np.ascontiguousarray(next(_noise(seed, 0, n_paths, n_fine, dt_fine, n_fine)).T)
    form = getattr(kernel, "exp_form", lambda: None)()
    for dt in dts:
        factor = dt / dt_fine
        if abs(factor - round(factor)) > 1e-9:
            raise ValueError(f"dt {dt} is not an integer multiple of the finest dt {dt_fine}")
        factor = int(round(factor))
        n_coarse = n_fine // factor
        dW = dW_fine[:, : n_coarse * factor].reshape(n_paths, n_coarse, factor).sum(axis=2)
        x_conv, x_lift = (
            # each scheme writes its X over its own copy of the noise
            _advance_block(model, _convolver(kernel, form, scheme, dt, n_coarse, n_paths),
                           [np.ascontiguousarray(dW.T)], n_paths, dt, (-math.inf, math.inf))[0]
            for scheme in _SCHEMES
        )
        rows.append({"dt": dt, "max_terminal_gap": float(np.max(np.abs(x_conv - x_lift)))})
    return rows
