"""Scale and test functions for the boundary attainment problem.

Everything here lives on a state interval (l, r) and is anchored at an
interior base point c.  With K0 = K(0), K0' = K'(0) and the modified
coefficients

    b~(x)     = K0 b(x) + (K0'/K0) x,
    sigma~(x) = K0 sigma(x),

the shifted drift adds a piecewise-constant term switching at c,

    b~_c(x; beta, gamma) = b~(x) + (K0'/K0) (beta 1_{x<c} + gamma 1_{x>=c}),

and the scale function and first test function are

    p_c(x)  = int_c^x p'_c(y) dy,     p'_c(y) = exp(E(y)),
    E(y)    = -2 int_c^y b~_c(z) / sigma~(z)^2 dz,
    v_c(x)  = 2 int_c^x p'_c(y) int_c^y (p'_c(z) sigma~(z)^2)^(-1) dz dy.

Divergence of v at a boundary (for suitable shifts) is what the verdict
layer in ``feller`` consumes.  All integration runs in log space: p' spans
hundreds of orders of magnitude near boundaries and overflow must degrade
into +inf values, not NaNs.

p, v and v' at any set of points on one side of c come from one sweep: a
pass outward from c that carries (E, log I, log p, log v), with I the
inner antiderivative int_c^x (p' sigma~^2)^(-1), along one graded grid
that has every requested point as an edge.  Panels are halved until E and
-E - log sigma~^2 each move at most about one nat across their 12 Gauss
nodes; there the partial integrals to the nodes come from the Gauss
integration matrix S[j, k] = int_{-1}^{t_j} l_k (spectral integration),
applied to the integrand divided by its panel maximum.  Panels touching a
finite endpoint or an interior zero of sigma, and panels whose spread
more halving would not resolve, integrate to each node on sub-panels
graded from both ends instead.  The base grid is doubled from 64 panels
until the requested quantity agrees between rounds at every point
(``quad_tol`` in log space, or ``NumericError``).

Each built-in model family keeps its closed forms on its own class, and
``ScaleContext`` and ``feller.family_test`` use whichever a model has:

* ``exponent(y, c, k0, ratio, shift)``: E(y), with ``ratio`` = K0'/K0 and
  ``shift`` the beta-or-gamma value at each y;
* ``limit_rule(which, target, k0, ratio, shift)``: (kind, evidence) for the
  limit of v or |p| at one boundary under that side's shift;
* ``interior_singularities()``: interior zeros of sigma, graded like
  endpoints;
* ``family_verdicts(k0, kp0, emit)``: the family's printed inequalities,
  emitted as (boundary, verdict, theorem, evidence) with string names.

``CustomModel`` has none of them: E comes from the sweep's integration
matrix applied to 2 b~_c / sigma~^2, limits from sampling, and
``family_test`` does not apply.  The ``family`` class attribute is a data
tag only.

The iterated-integral series u_c = sum_n u_{c,n} built from the recursion

    u_{c,0} = 1,
    u_{c,n}(x) = 2 int_c^x p'_c(y) int_c^y u_{c,n-1}(z) / (p'_c(z)
                 sigma~(z)^2) dz dy,

satisfies 1 + v_c <= u_c <= exp(v_c); partial sums of it solve the
associated second-order equation u = (1/2) sigma~^2 u'' + b~_c u' in the
limit.  The recursion divides by sigma~ squared throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.special import logsumexp

from ._quad import cumulative_simpson, gl_integration_matrix, gl_rule, outward_edges
from .errors import NumericError, PreconditionError

__all__ = [
    "CIRModel",
    "JacobiModel",
    "PowerModel",
    "CustomModel",
    "ScaleContext",
    "LimitResult",
]

_LOG2 = math.log(2.0)
_LOG_HUGE = 700.0  # beyond this, exp() overflows; treated as divergent mass
_ORDER = 12  # Gauss nodes per sweep panel
_NAT = 1.0  # largest move of an integrand's log across a resolved panel's nodes
_MAX_BISECTIONS = 8  # halving rounds before a panel falls back to graded quadrature
DIVERGENCE_CAP = 1e12  # a sampled or staged value at or above this counts as divergent


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


def kernel_scalars(kernel):
    """(K(0), K'(0)) of a kernel after checking the standing sign conditions:
    K(0) finite and positive, K'(0) finite and nonpositive."""
    k0, kp0 = kernel.k0_kprime0()
    _require(math.isfinite(k0) and k0 > 0.0, f"K(0) must be finite and positive, got {k0}")
    _require(math.isfinite(kp0) and kp0 <= 0.0, f"K'(0) must be finite and nonpositive, got {kp0}")
    return k0, kp0


@dataclass(frozen=True)
class CIRModel:
    """Square-root diffusion on (0, inf): b(x) = kappa (theta - x),
    sigma(x) = sigma sqrt(x)."""

    kappa: float
    theta: float
    sigma: float
    x0: float

    family = "cir"

    def __post_init__(self):
        _require(self.kappa > 0.0, f"kappa must be positive, got {self.kappa}")
        _require(self.theta > 0.0, f"theta must be positive, got {self.theta}")
        _require(self.sigma > 0.0, f"sigma must be positive, got {self.sigma}")
        _require(self.x0 > 0.0, f"x0 must lie inside (0, inf), got {self.x0}")

    @property
    def interval(self):
        return (0.0, math.inf)

    def drift(self, x):
        return self.kappa * (self.theta - np.asarray(x, dtype=float))

    def diffusion(self, x):
        return self.sigma * np.sqrt(np.asarray(x, dtype=float))

    def truncate(self, x):
        return np.maximum(np.asarray(x, dtype=float), 0.0)

    def exponent(self, y, c, k0, ratio, shift):
        cc = 2.0 / (k0 * self.sigma) ** 2
        e = cc * (k0 * self.kappa * self.theta + shift * ratio)
        lin = cc * (ratio - k0 * self.kappa)
        return -e * np.log(y / c) - lin * (y - c)

    def limit_rule(self, which, target, k0, ratio, shift):
        if which == "right":
            return "divergent", {"reason": "p' grows exponentially toward +inf"}
        expo = 2.0 / (k0 * self.sigma) ** 2 * (k0 * self.kappa * self.theta + shift * ratio)
        ev = {"exponent": expo, "divergent_iff": "exponent >= 1"}
        return ("divergent" if expo >= 1.0 else "finite"), ev

    def sufficient_gap(self, k0):
        """2 kappa theta - K0 sigma^2; no exit through 0 when it is >= 0."""
        return 2.0 * self.kappa * self.theta - k0 * self.sigma**2

    def necessary_threshold(self, k0, kp0):
        """The x0 level below which exit through 0 has positive probability.

        (sigma^2 K0^3 / 2 - kappa theta K0^2) / |K0'| for K0' < 0.  With
        K0' = 0 exit does not depend on x0: +inf when the sufficient gap is
        negative, -inf otherwise.
        """
        if kp0 < 0.0:
            return (self.sigma**2 * k0**3 / 2.0 - self.kappa * self.theta * k0**2) / abs(kp0)
        return math.inf if self.sufficient_gap(k0) < 0.0 else -math.inf

    def family_verdicts(self, k0, kp0, emit):
        x0 = self.x0
        suff = self.sufficient_gap(k0)
        if suff >= 0.0:
            emit("Left", "NoExitAS", "cir-sufficient",
                 [("2*kappa*theta - K0*sigma^2", suff, 0.0)])
        if kp0 < 0.0:
            thr = self.necessary_threshold(k0, kp0)
            verdict = "NecessaryHolds" if x0 >= thr else "ExitsWithPositiveProb"
            emit("Left", verdict, "cir-necessary", [("x0", x0, thr)])
        elif suff < 0.0:
            # constant-slope kernel: the sufficient condition is an equivalence,
            # and its failure also pins the supremum below any level
            emit("Left", "ExitsWithPositiveProb", "cir-classical-iff",
                 [("2*kappa*theta - K0*sigma^2", suff, 0.0)])
            emit("Right", "SupBoundedAS", "cir-classical-sup-bound",
                 [("2*kappa*theta - K0*sigma^2", suff, 0.0)])


@dataclass(frozen=True)
class JacobiModel:
    """Bounded diffusion on (a, b): b(x) = kappa (theta - x),
    sigma(x) = sigma sqrt((x - a)(b - x))."""

    a: float
    b: float
    kappa: float
    theta: float
    sigma: float
    x0: float

    family = "jacobi"

    def __post_init__(self):
        _require(math.isfinite(self.a) and math.isfinite(self.b), "a, b must be finite")
        _require(self.a < self.b, f"need a < b, got a={self.a}, b={self.b}")
        _require(self.kappa > 0.0, f"kappa must be positive, got {self.kappa}")
        _require(self.a < self.theta < self.b, f"theta must lie in (a, b), got {self.theta}")
        _require(self.sigma > 0.0, f"sigma must be positive, got {self.sigma}")
        _require(self.a < self.x0 < self.b, f"x0 must lie in (a, b), got {self.x0}")

    @property
    def interval(self):
        return (self.a, self.b)

    def drift(self, x):
        return self.kappa * (self.theta - np.asarray(x, dtype=float))

    def diffusion(self, x):
        x = np.asarray(x, dtype=float)
        return self.sigma * np.sqrt((x - self.a) * (self.b - x))

    def truncate(self, x):
        return np.clip(np.asarray(x, dtype=float), self.a, self.b)

    def _coef(self, end, k0, ratio, shift):
        # coefficient of log|y - end| in -E(y) / C, C = 2 (K0 sigma)^-2
        return (k0 * self.kappa * (self.theta - end) + ratio * (end + shift)) / (self.b - self.a)

    def exponent(self, y, c, k0, ratio, shift):
        a, b = self.a, self.b
        cc = 2.0 / (k0 * self.sigma) ** 2
        return -cc * (
            self._coef(a, k0, ratio, shift) * np.log((y - a) / (c - a))
            - self._coef(b, k0, ratio, shift) * np.log((b - y) / (b - c))
        )

    def limit_rule(self, which, target, k0, ratio, shift):
        end = self.a if which == "left" else self.b
        expo = self._coef(end, k0, ratio, shift) * (2.0 / (k0 * self.sigma) ** 2)
        if which == "right":
            expo = -expo
        ev = {"exponent": expo, "divergent_iff": "exponent >= 1"}
        return ("divergent" if expo >= 1.0 else "finite"), ev

    def family_verdicts(self, k0, kp0, emit):
        a, b = self.a, self.b
        kappa, theta, sigma, x0 = self.kappa, self.theta, self.sigma, self.x0
        width = b - a
        suff_l = 2.0 * kappa * (theta - a) - k0 * sigma**2 * width
        suff_r = 2.0 * kappa * (b - theta) - k0 * sigma**2 * width
        if suff_l >= 0.0:
            emit("Left", "NoExitAS", "jacobi-sufficient",
                 [("2*kappa*(theta-a) - K0*sigma^2*(b-a)", suff_l, 0.0)])
        if suff_r >= 0.0:
            emit("Right", "NoExitAS", "jacobi-sufficient",
                 [("2*kappa*(b-theta) - K0*sigma^2*(b-a)", suff_r, 0.0)])
        if kp0 < 0.0:
            scale = k0**2 / (2.0 * abs(kp0))
            thr_l = a + scale * (k0 * sigma**2 * width - 2.0 * kappa * (theta - a))
            thr_r = b - scale * (k0 * sigma**2 * width - 2.0 * kappa * (b - theta))
            emit("Left", "NecessaryHolds" if x0 >= thr_l else "ExitsWithPositiveProb",
                 "jacobi-necessary", [("x0", x0, thr_l)])
            emit("Right", "NecessaryHolds" if x0 <= thr_r else "ExitsWithPositiveProb",
                 "jacobi-necessary", [("x0", x0, thr_r)])
        else:
            if suff_l < 0.0:
                emit("Left", "ExitsWithPositiveProb", "jacobi-classical-iff",
                     [("2*kappa*(theta-a) - K0*sigma^2*(b-a)", suff_l, 0.0)])
            if suff_r < 0.0:
                emit("Right", "ExitsWithPositiveProb", "jacobi-classical-iff",
                     [("2*kappa*(b-theta) - K0*sigma^2*(b-a)", suff_r, 0.0)])
        # localized bounds: one endpoint repelling strongly enough while the
        # other attracts keeps the extreme of the path short of the far endpoint
        drift_cap = (k0 * sigma**2 - 2.0 * abs(kp0) / k0**2) * width
        if suff_r >= 0.0 and 2.0 * kappa * (theta - a) < drift_cap:
            emit("Right", "SupBoundedAS", "jacobi-sup-bound",
                 [("2*kappa*(theta-a)", 2.0 * kappa * (theta - a), drift_cap)])
        if suff_l >= 0.0 and 2.0 * kappa * (b - theta) < drift_cap:
            emit("Left", "InfBoundedAS", "jacobi-inf-bound",
                 [("2*kappa*(b-theta)", 2.0 * kappa * (b - theta), drift_cap)])


@dataclass(frozen=True)
class PowerModel:
    """Superlinear drift on the whole line: b(x) = |x|^alpha,
    sigma(x) = sigma |x|^(delta/2), alpha > 1, 0 <= delta < 1."""

    alpha: float
    delta: float
    sigma: float
    x0: float

    family = "power"

    def __post_init__(self):
        _require(self.alpha > 1.0, f"alpha must exceed 1, got {self.alpha}")
        _require(0.0 <= self.delta < 1.0, f"delta must lie in [0, 1), got {self.delta}")
        _require(self.sigma > 0.0, f"sigma must be positive, got {self.sigma}")
        _require(math.isfinite(self.x0), f"x0 must be finite, got {self.x0}")

    @property
    def interval(self):
        return (-math.inf, math.inf)

    def drift(self, x):
        return np.abs(np.asarray(x, dtype=float)) ** self.alpha

    def diffusion(self, x):
        return self.sigma * np.abs(np.asarray(x, dtype=float)) ** (0.5 * self.delta)

    def truncate(self, x):
        return np.asarray(x, dtype=float)

    def exponent(self, y, c, k0, ratio, shift):
        cc = 2.0 / (k0 * self.sigma) ** 2
        p = self.alpha - self.delta

        def odd(z, q):
            return np.sign(z) * np.abs(z) ** q / q

        def even(z, q):
            return np.abs(z) ** q / q

        term = k0 * (odd(y, p + 1.0) - odd(c, p + 1.0))
        term = term + ratio * (even(y, 2.0 - self.delta) - even(c, 2.0 - self.delta))
        term = term + ratio * shift * (odd(y, 1.0 - self.delta) - odd(c, 1.0 - self.delta))
        return -cc * term

    def limit_rule(self, which, target, k0, ratio, shift):
        if which == "left":
            return "divergent", {"reason": "p' grows superexponentially toward -inf"}
        if target == "p":
            return "finite", {"reason": "p' decays superexponentially toward +inf"}
        if self.alpha > 1.0 + self.delta:
            return "finite", {"rule": "alpha > 1 + delta", "alpha": self.alpha,
                              "delta": self.delta}
        return "inconclusive", {"rule": "alpha <= 1 + delta: no closed rule",
                                "alpha": self.alpha, "delta": self.delta}

    def interior_singularities(self):
        # sigma vanishes at 0 when delta > 0
        return (0.0,) if self.delta > 0.0 else ()

    def family_verdicts(self, k0, kp0, emit):
        emit("Left", "NoExitAS", "power-no-left-blowup", [("alpha", self.alpha, 1.0)])
        margin = self.alpha - (1.0 + self.delta)
        verdict = "ExitsWithPositiveProb" if margin > 0.0 else "Inconclusive"
        emit("Right", verdict, "power-right-blowup", [("alpha - (1 + delta)", margin, 0.0)])


@dataclass(eq=False)
class CustomModel:
    """User-defined coefficients on an interval.

    ``drift_fn`` and ``diffusion_fn`` must accept numpy arrays.  Local
    integrability of 1/sigma~^2 and |b~|/sigma~^2 on the open interval is
    the caller's assertion; the library does not verify it.
    """

    drift_fn: object
    diffusion_fn: object
    interval_bounds: tuple
    x0: float

    family = "custom"

    def __post_init__(self):
        _require(callable(self.drift_fn), "drift_fn must be callable")
        _require(callable(self.diffusion_fn), "diffusion_fn must be callable")
        l, r = self.interval_bounds
        _require(l < r, f"interval must be nonempty, got ({l}, {r})")
        _require(l < self.x0 < r, f"x0 must lie inside ({l}, {r}), got {self.x0}")

    @property
    def interval(self):
        return (float(self.interval_bounds[0]), float(self.interval_bounds[1]))

    def drift(self, x):
        return np.asarray(self.drift_fn(np.asarray(x, dtype=float)), dtype=float)

    def diffusion(self, x):
        return np.asarray(self.diffusion_fn(np.asarray(x, dtype=float)), dtype=float)

    def truncate(self, x):
        l, r = self.interval
        return np.clip(np.asarray(x, dtype=float), l, r)


@dataclass(frozen=True)
class LimitResult:
    """Outcome of a boundary limit classification.

    kind : 'finite', 'divergent' or 'inconclusive'
    value : limit estimate for finite kinds when one is computable
    method : 'closed' (exponent arithmetic) or 'sample' (geometric sampling)
    evidence : exponents or the sampled sequence backing the call; sampled
        limits also carry the sweep's effort: ``base_panels`` at
        convergence, ``doubling_rounds`` (sweeps run) and ``last_max_delta``
        (largest |change| of the log values between the last two rounds)
    """

    kind: str
    value: float | None
    method: str
    evidence: dict = field(default_factory=dict)


class _Sweep(NamedTuple):
    # running state of one outward pass, read at the requested points
    e: np.ndarray  # E = log p'
    log_i: np.ndarray  # log |int_c^x (p' sigma~^2)^(-1)|
    log_p: np.ndarray  # log |p|
    log_v: np.ndarray  # log v


# the checked field's name in NumericError messages
_QUANTITY = {"log_i": "inner antiderivative", "log_p": "scale", "log_v": "test function"}


@dataclass(frozen=True)
class ScaleContext:
    """Model + kernel scalars + base point + shifts; owns all evaluations.

    Only K(0) and K'(0) enter; the kernel's full time profile does not.
    Contexts are immutable: use :meth:`with_shifts` to reanchor beta/gamma.
    """

    model: object
    kernel: object
    c: float | None = None
    beta: float = 0.0
    gamma: float = 0.0
    quad_tol: float = 1e-9
    max_panels: int = 4096

    def __post_init__(self):
        l, r = self.model.interval
        c = self.model.x0 if self.c is None else float(self.c)
        _require(l < c < r, f"base point c={c} must lie strictly inside ({l}, {r})")
        object.__setattr__(self, "c", c)
        _require(math.isfinite(self.beta), f"beta must be finite, got {self.beta}")
        _require(math.isfinite(self.gamma), f"gamma must be finite, got {self.gamma}")
        _require(self.quad_tol > 0.0, f"quad_tol must be positive, got {self.quad_tol}")
        _require(self.max_panels >= 64, "max_panels must be at least 64")
        k0, kp0 = kernel_scalars(self.kernel)
        object.__setattr__(self, "_k0", float(k0))
        object.__setattr__(self, "_kp0", float(kp0))

    # -- derived scalars ---------------------------------------------------

    @property
    def k0(self) -> float:
        return self._k0

    @property
    def kprime0(self) -> float:
        return self._kp0

    @property
    def _ratio(self) -> float:
        # K'(0)/K(0), the slope of the shift terms
        return self._kp0 / self._k0

    def with_shifts(self, beta: float, gamma: float) -> "ScaleContext":
        return replace(self, beta=beta, gamma=gamma)

    def with_base(self, c: float) -> "ScaleContext":
        return replace(self, c=c)

    # -- modified coefficients ---------------------------------------------

    def b_tilde(self, x):
        x = np.asarray(x, dtype=float)
        return self._k0 * self.model.drift(x) + self._ratio * x

    def b_tilde_shifted(self, x):
        x = np.asarray(x, dtype=float)
        shift = np.where(x < self.c, self.beta, self.gamma)
        return self.b_tilde(x) + self._ratio * shift

    def sigma_tilde(self, x):
        return self._k0 * self.model.diffusion(x)

    def sigma_tilde_sq(self, x):
        return self.sigma_tilde(x) ** 2

    def _log_sigma_tilde_sq(self, x):
        with np.errstate(divide="ignore"):
            return 2.0 * (math.log(self._k0) + np.log(self.model.diffusion(x)))

    # -- exponent E(y) = log p'_c(y) -----------------------------------------

    def _side_shift(self, y):
        return np.where(np.asarray(y, dtype=float) < self.c, self.beta, self.gamma)

    def _exponent_custom(self, pts, start):
        # E(pts) - E(start) by cumulative quadrature of 2 b~_c / sigma~^2
        # along the path from start through pts (all on one side of it),
        # sorted outward; open Gauss panels between consecutive points, so
        # start and any asserted-integrable endpoints are never hit.
        pts = np.asarray(pts, dtype=float)
        order = np.argsort(pts, kind="stable")
        if pts[order[0]] < start:
            order = order[::-1]
        path = np.concatenate([[start], pts[order]])
        x8, w8 = gl_rule(8)
        lo = path[:-1]
        hi = path[1:]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        z = mid[:, None] + half[:, None] * x8[None, :]
        g = 2.0 * self.b_tilde_shifted(z.ravel()) / self.sigma_tilde_sq(z.ravel())
        segs = (g.reshape(z.shape) @ w8) * half
        out = np.empty_like(pts)
        out[order] = -np.cumsum(segs)
        return out

    @property
    def _closed_exponent(self):
        return getattr(self.model, "exponent", None) is not None

    def _exponent_batch(self, pts):
        # closed form when the model has one, quadrature otherwise
        if not self._closed_exponent:
            return self._exponent_custom(pts, self.c)
        y = np.asarray(pts, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            return self.model.exponent(y, self.c, self._k0, self._ratio, self._side_shift(y))

    def log_scale_derivative(self, x):
        """log p'_c(x); finite wherever x is interior."""
        arr = np.asarray(x, dtype=float)
        self._check_interior(arr)
        pts = np.atleast_1d(arr).ravel()
        if self._closed_exponent:
            out = self._exponent_batch(pts)
        else:
            # custom models read E off one outward sweep per side of c
            out = np.zeros_like(pts)
            for side in (pts > self.c, pts < self.c):
                if side.any():
                    out[side] = self._sweep(pts[side], 64, inner=False).e
        if np.isscalar(x) or arr.ndim == 0:
            return float(out[0])
        return out.reshape(arr.shape)

    def scale_derivative(self, x):
        """p'_c(x) = exp E(x); overflows to +inf rather than raising."""
        out = self.log_scale_derivative(x)
        if isinstance(out, float):
            return math.exp(out) if out <= _LOG_HUGE else math.inf
        with np.errstate(over="ignore"):
            return np.exp(out)

    def _check_interior(self, arr):
        l, r = self.model.interval
        a = np.atleast_1d(arr)
        if np.any(~np.isfinite(a)) or np.any(a <= l) or np.any(a >= r):
            raise ValueError(f"argument must lie strictly inside ({l}, {r})")

    # -- the sweep -------------------------------------------------------------

    def _interior_singularities(self):
        # interior zeros of sigma a model declares; none for custom models
        found = getattr(self.model, "interior_singularities", None)
        return found() if found is not None else ()

    def _singular_points(self):
        # finite endpoints and interior zeros of sigma: next to one, the
        # integrands keep a power law that no amount of halving resolves
        l, r = self.model.interval
        return [s for s in (l, r, *self._interior_singularities()) if math.isfinite(s)]

    def _edges(self, lo, hi, n_panels, rel_first):
        half = max(n_panels // 2, 8)
        parts = [
            outward_edges(lo, hi, half, rel_first),
            outward_edges(hi, lo, half, rel_first),
        ]
        # integrands on wide single-sign intervals vary on a log scale, so
        # endpoint grading alone starves the interior; keep panels per decade
        if lo > 0.0 and hi >= 16.0 * lo:
            parts.append(np.geomspace(lo, hi, half))
        elif hi < 0.0 and lo <= 16.0 * hi:
            parts.append(-np.geomspace(-hi, -lo, half))
        for s in self._interior_singularities():
            if lo < s < hi:
                q = max(n_panels // 4, 8)
                parts.append(outward_edges(lo, s, q, rel_first))
                parts.append(outward_edges(hi, s, q, rel_first))
        return np.unique(np.concatenate(parts))

    def _node_values(self, a, b, inner):
        # Gauss nodes of panels running from a (the end nearer c) to b, in
        # that order, with E there and log sigma~^2 (inner sweeps only).
        # Custom models give E relative to E(a), from the integration matrix
        # applied to 2 b~_c / sigma~^2, plus the panel's total change of E.
        t, w = gl_rule(_ORDER)
        half = 0.5 * (b - a)
        y = a[:, None] + half[:, None] * (1.0 + t)
        log_sig = self._log_sigma_tilde_sq(y) if inner else None
        if self._closed_exponent:
            return y, self._exponent_batch(y.ravel()).reshape(y.shape), log_sig, None
        g = 2.0 * self.b_tilde_shifted(y) / self.sigma_tilde_sq(y)
        return y, -half[:, None] * (g @ gl_integration_matrix(_ORDER).T), log_sig, -half * (g @ w)

    def _refine(self, a, b, inner):
        # Halve panels until E (and, for inner sweeps, -E - log sigma~^2)
        # moves at most _NAT across the nodes; the 12-node interpolant of an
        # exponential that moves one nat is good to about 1e-14, and the
        # base-grid doubling in _stabilized checks what the spread misses.
        # Panels touching a singular point, and panels the rounds left
        # could not bring under _NAT, are flagged for graded quadrature.
        vals = self._node_values(a, b, inner)
        singular = self._singular_points()
        fallback = np.isin(a, singular) | np.isin(b, singular)
        for left in range(_MAX_BISECTIONS, -1, -1):
            _, e, log_sig, _ = vals
            with np.errstate(invalid="ignore"):
                spread = np.ptp(e, axis=1)
                if inner:
                    spread = np.maximum(spread, np.ptp(-e - log_sig, axis=1))
            over = ~(spread <= _NAT) & ~fallback
            fallback |= over & ~(spread <= _NAT * 2.0**left)
            split = over & ~fallback
            if not split.any():
                break  # always by the last round, which flags what is left
            counts = 1 + split
            first = (np.cumsum(counts) - counts)[split]
            mid = 0.5 * (a[split] + b[split])
            halves = self._node_values(
                np.concatenate([a[split], mid]), np.concatenate([mid, b[split]]), inner
            )
            n = len(mid)
            a, b = np.repeat(a, counts), np.repeat(b, counts)
            b[first] = mid
            a[first + 1] = mid
            fallback = np.repeat(fallback, counts)
            spliced = []
            for old, new in zip(vals, halves):
                if old is not None:
                    old = np.repeat(old, counts, axis=0)
                    old[first], old[first + 1] = new[:n], new[n:]
                spliced.append(old)
            vals = tuple(spliced)
        return a, b, vals, fallback

    def _advance(self, a, b, state, inner):
        # integrate panels a -> b (outward from c) on from state = (E, log I,
        # log p, log v) at a[0]; returns the refined panel ends and the state
        # at each of them (E only for custom models, I and v only if inner)
        e0, i0, p0, v0 = state
        a, b, (y, e, log_sig, de), fallback = self._refine(a, b, inner)
        _, w = gl_rule(_ORDER)
        log_w = np.log(w)
        log_half = np.log(np.abs(0.5 * (b - a)))
        nan = np.full(len(b), np.nan)
        e_b = nan
        if de is not None:
            e_b = e0 + np.cumsum(de)
            e_a = np.concatenate([[e0], e_b[:-1]])
            e = e + e_a[:, None]
        with np.errstate(invalid="ignore"):
            p_b = np.logaddexp.accumulate(
                np.concatenate([[p0], logsumexp(e + log_w, axis=1) + log_half])
            )[1:]
        if not inner:
            return b, e_b, nan, p_b, nan
        with np.errstate(invalid="ignore"):
            log_h = -e - log_sig
        log_h[np.isnan(log_h)] = -np.inf  # see _log_inner_intervals
        part = np.empty_like(e)
        total = np.empty(len(b))
        fine = ~fallback
        if fine.any():
            # the integration matrix acts on h / max h, so nothing leaves log space
            top = log_h[fine].max(axis=1)
            h = np.exp(log_h[fine] - top[:, None])
            scale = top + log_half[fine]
            part[fine] = scale[:, None] + np.log(h @ gl_integration_matrix(_ORDER).T)
            total[fine] = scale + np.log(h @ w)
        for i in np.flatnonzero(fallback):
            if de is None:
                exponent = self._exponent_batch
            else:
                def exponent(z, anchor=a[i], e_anchor=e_a[i]):
                    return e_anchor + self._exponent_custom(z, start=anchor)
            vals = self._log_inner_intervals(
                np.full(_ORDER + 1, a[i]), np.append(y[i], b[i]), exponent
            )
            part[i], total[i] = vals[:-1], vals[-1]
        i_b = np.logaddexp.accumulate(np.concatenate([[i0], total]))
        log_i = np.logaddexp(i_b[:-1, None], part)
        with np.errstate(invalid="ignore"):
            v_inc = _LOG2 + logsumexp(e + log_i + log_w, axis=1) + log_half
        v_b = np.logaddexp.accumulate(np.concatenate([[v0], v_inc]))[1:]
        return b, e_b, i_b[1:], p_b, v_b

    def _sweep(self, xs, n_panels, rel_first=1e-7, inner=True, field="log_v", stop=math.inf):
        """(E, log I, log p, log v) at xs by one cumulative pass from c.

        xs lie on one side of c.  The grid is ``_edges`` from c to the
        farthest x with every x as an edge.  The pass runs outward in chunks
        of 1, 2, 4, ... requested points and ends after the chunk in which
        ``field`` first reaches ``stop``; points beyond read nan.
        """
        xs = np.asarray(xs, dtype=float)
        uniq, inv = np.unique(xs, return_inverse=True)
        far = xs[np.argmax(np.abs(xs - self.c))]
        lo, hi = (self.c, far) if far > self.c else (far, self.c)
        edges = np.union1d(self._edges(lo, hi, n_panels, rel_first), uniq)
        if far < self.c:
            uniq, inv, edges = uniq[::-1], len(uniq) - 1 - inv, edges[::-1]
        ends = np.flatnonzero(np.isin(edges, uniq))
        out = np.full((4, len(uniq)), np.nan)
        row = _Sweep._fields.index(field)
        state = (0.0, -np.inf, -np.inf, -np.inf)
        done, start, chunk = 0, 0, 1
        while done < len(uniq) and not np.any(out[row, :done] >= stop):
            upto = min(done + chunk, len(uniq))
            end = ends[upto - 1]
            b, *cols = self._advance(edges[start:end], edges[start + 1:end + 1], state, inner)
            at = np.isin(b, uniq[done:upto])
            out[:, done:upto] = [col[at] for col in cols]
            state = tuple(col[-1] for col in cols)
            done, start, chunk = upto, end, 2 * chunk
        if self._closed_exponent:
            out[0] = self._exponent_batch(uniq)
        return _Sweep(*out[:, inv])

    def _log_inner_intervals(self, lo, hi, exponent):
        # log of int_lo^hi (p' sigma~^2)^(-1), elementwise over interval
        # arrays of any common shape, with E from exponent(points).  The
        # integrand e^-E / sigma~^2 can vary by thousands of nats across one
        # interval, concentrating in an endpoint layer of width 1/|E'|;
        # sub-edges are graded geometrically from both ends starting at that
        # resolvable scale, so plain Gauss sees at most a few nats of
        # variation per sub-panel.  An end where b~_c and sigma~ both vanish
        # (0/0) reads as infinitely steep, so it gets the finest grading.
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        span = hi - lo
        with np.errstate(all="ignore"):
            g_lo = np.abs(2.0 * self.b_tilde_shifted(lo) / self.sigma_tilde_sq(lo))
            g_hi = np.abs(2.0 * self.b_tilde_shifted(hi) / self.sigma_tilde_sq(hi))
            g = np.fmax(np.nan_to_num(np.maximum(g_lo, g_hi), nan=np.inf), 1.0)
            rel0 = np.where(span != 0.0, 1.0 / (g * np.abs(span)), 1.0)
        rel0 = np.clip(rel0, 1e-13, 0.5)
        n_dbl = int(min(45, max(4, math.ceil(-math.log2(float(np.min(rel0)))))))
        ladder = np.minimum(rel0[..., None] * 2.0 ** np.arange(n_dbl + 1), 0.5)
        ladder = np.concatenate([np.zeros(ladder.shape[:-1] + (1,)), ladder], axis=-1)
        rel_edges = np.concatenate([ladder, 1.0 - ladder[..., ::-1]], axis=-1)
        sub_lo = lo[..., None] + span[..., None] * rel_edges[..., :-1]
        sub_hi = lo[..., None] + span[..., None] * rel_edges[..., 1:]
        half = 0.5 * (sub_hi - sub_lo)
        mid = 0.5 * (sub_hi + sub_lo)
        x8, w8 = gl_rule(8)
        z = mid[..., None] + half[..., None] * x8
        e_z = exponent(z.ravel()).reshape(z.shape)
        with np.errstate(invalid="ignore"):
            log_h = -e_z - self._log_sigma_tilde_sq(z.ravel()).reshape(z.shape)
        # inf - inf at a node only happens when fp rounding of a graded
        # sub-panel puts it exactly on a boundary where sigma~ vanishes and
        # the exponent diverges; there the integrand limit is zero
        log_h = np.where(np.isnan(log_h), -np.inf, log_h)
        with np.errstate(divide="ignore"):
            return logsumexp(
                log_h + np.log(w8) + np.log(np.abs(half))[..., None], axis=(-2, -1)
            )

    def _leg_tol_floor(self, x):
        # a leg crossing (or touching) an interior diffusion zero keeps a
        # power-law integrand factor there.  On PowerModel(1.5, 0.75, 1, 1)
        # with K = 1, log v at -1.0 and -0.3 still moves at first order in
        # the base panel count: 3.4e-7 from 64 to 128 panels, halving per
        # doubling to 8.8e-9 at 4096 (the max_panels default), so 1e-9 is
        # out of reach and this floor stops such legs at 128 panels.  Their
        # remaining 2.6e-6 gap to nested quad is set by the first graded
        # sub-panel (rel_first), not by the panel count
        lo, hi = (x, self.c) if x < self.c else (self.c, x)
        for s in self._interior_singularities():
            if lo <= s <= hi:
                return 1e-6
        return 0.0

    def _stabilized(self, xs, field, stop=math.inf):
        """Sweep with 64, 128, ... base panels until ``field`` agrees between
        consecutive rounds at every x up to the first at or above ``stop``.

        Returns the last sweep and its effort: base panels at convergence,
        the number of sweeps run and the largest |change| of ``field`` that
        the tolerance rule judged.
        """
        xs = np.asarray(xs, dtype=float)
        tol = np.array([max(self.quad_tol, 1e-12, self._leg_tol_floor(x)) for x in xs])
        prev = None
        first_open = 0
        n_panels = 64
        rounds = 0
        while n_panels <= self.max_panels:
            sweep = self._sweep(xs, n_panels, inner=field != "log_p", field=field, stop=stop)
            rounds += 1
            cur = getattr(sweep, field)
            if prev is not None:
                reached = np.flatnonzero(cur >= stop)
                m = reached[0] + 1 if reached.size else len(xs)
                now, before = cur[:m], prev[:m]
                with np.errstate(invalid="ignore"):
                    settled = (now == -math.inf) & (before == -math.inf)
                    settled |= np.minimum(now, before) > _LOG_HUGE
                    delta = np.abs(now - before)
                    ok = settled | (delta <= tol[:m])
                if ok.all():
                    effort = {
                        "base_panels": n_panels,
                        "doubling_rounds": rounds,
                        "last_max_delta": float(np.max(delta[~settled], initial=0.0)),
                    }
                    return sweep, effort
                first_open = int(np.argmin(ok))
            prev = cur
            n_panels *= 2
        raise NumericError(
            f"{_QUANTITY[field]} quadrature did not stabilize",
            x=float(xs[first_open]),
            last_log_value=float(prev[first_open]),
            max_panels=self.max_panels,
        )

    def _log_target_at_boundary(self, boundary, target):
        # graded integration all the way to a finite endpoint; accuracy is
        # limited by float resolution of (y - boundary), so the stop rule is
        # loose and the result is informational (the kind is decided by the
        # closed-form exponents, not by this number)
        field = "log_v" if target == "v" else "log_p"
        prev = None
        for n_panels, rel in ((128, 1e-7), (256, 1e-10), (512, 1e-13), (1024, 1e-13)):
            sweep = self._sweep([boundary], n_panels, rel, inner=target == "v")
            cur = float(getattr(sweep, field)[0])
            if prev is not None and (abs(cur - prev) <= 1e-3 or min(cur, prev) > _LOG_HUGE):
                return cur
            prev = cur
        return prev

    # -- public evaluations ----------------------------------------------------

    def scale(self, x) -> float:
        """p_c(x) = int_c^x p'.  Signed; zero at c; may overflow to +-inf."""
        x = float(x)
        self._check_interior(np.asarray(x))
        if x == self.c:
            return 0.0
        sweep, _ = self._stabilized([x], "log_p")
        log_p = float(sweep.log_p[0])
        mag = math.exp(log_p) if log_p <= _LOG_HUGE else math.inf
        return mag if x > self.c else -mag

    def v(self, x) -> float:
        """First test function v_c(x) >= 0; may overflow to +inf."""
        x = float(x)
        self._check_interior(np.asarray(x))
        if x == self.c:
            return 0.0
        sweep, _ = self._stabilized([x], "log_v")
        log_v = float(sweep.log_v[0])
        return math.exp(log_v) if log_v <= _LOG_HUGE else math.inf

    def v_prime(self, x) -> float:
        """d/dx v_c(x) = 2 p'_c(x) int_c^x (p'_c sigma~^2)^(-1) dz (signed)."""
        x = float(x)
        self._check_interior(np.asarray(x))
        if x == self.c:
            return 0.0
        sweep, _ = self._stabilized([x], "log_i")
        total = _LOG2 + float(sweep.e[0]) + float(sweep.log_i[0])
        mag = math.exp(total) if total <= _LOG_HUGE else math.inf
        return mag if x > self.c else -mag

    def u_series(self, x, n_terms: int = 8) -> float:
        """Partial sum sum_{k=0}^{n_terms} u_{c,k}(x) of the iterated series.

        n_terms = 0 returns 1; n_terms = 1 returns 1 + v_c(x) up to grid
        error.  Intended for x well inside the interval: the fixed grid
        underneath is not boundary-graded.
        """
        if not isinstance(n_terms, (int, np.integer)) or n_terms < 0:
            raise ValueError(f"n_terms must be a nonnegative integer, got {n_terms}")
        x = float(x)
        self._check_interior(np.asarray(x))
        # below ~1e-12 of the base point the 2049-point grid degenerates to
        # zero-width panels; the series is 1 + O((x-c)^2) there anyway
        if n_terms == 0 or abs(x - self.c) <= 1e-12 * max(1.0, abs(self.c)):
            return 1.0
        pts = np.linspace(self.c, x, 2049)
        for s in self._interior_singularities():
            hit = np.abs(pts - s) < 1e-13 * max(abs(x - self.c), 1.0)
            pts[hit] += 1e-9 * (x - self.c)
        e_vals = self._exponent_batch(pts)
        log_sig = self._log_sigma_tilde_sq(pts)
        with np.errstate(over="ignore"):
            p_prime = np.exp(np.clip(e_vals, -_LOG_HUGE, _LOG_HUGE))
            inv_ps = np.exp(np.clip(-e_vals - log_sig, -_LOG_HUGE, _LOG_HUGE))
        u_prev = np.ones_like(pts)
        total = 1.0
        for _ in range(n_terms):
            inner = cumulative_simpson(u_prev * inv_ps, pts)
            u_prev = 2.0 * cumulative_simpson(p_prime * inner, pts)
            total += u_prev[-1]
        return float(total)

    # -- boundary classification -----------------------------------------------

    def boundary_limit(
        self,
        which: str,
        target: str = "v",
        method: str = "auto",
        steps: int = 12,
    ) -> LimitResult:
        """Classify the limit of v_c (target='v') or |p_c| (target='p') at a
        boundary as finite or divergent.

        method 'closed' uses the per-family exponent signs, 'sample'
        evaluates along a geometric sequence approaching the boundary
        (x_k = boundary +- |c - boundary| 2^-k for finite endpoints,
        x_k = c -+ 2^k for infinite ones, k = 1..steps) and classifies the
        increment tail, 'auto' prefers the closed form and samples when no
        closed rule decides.

        All sample points are read off one outward sweep from c, which
        stops after the first point whose value reaches DIVERGENCE_CAP; the
        base grid is doubled until every point up to that one agrees
        between rounds.  A finite closed limit at a finite endpoint gets its
        value from a sweep that runs to the endpoint itself.
        """
        if which not in ("left", "right"):
            raise ValueError(f"which must be 'left' or 'right', got {which!r}")
        if target not in ("v", "p"):
            raise ValueError(f"target must be 'v' or 'p', got {target!r}")
        if method not in ("auto", "closed", "sample"):
            raise ValueError(f"unknown method {method!r}")
        if steps < 4:
            raise ValueError("need at least 4 sampling steps")
        has_rule = hasattr(self.model, "limit_rule")
        if method == "closed" and not has_rule:
            raise PreconditionError("no closed-form limit rule for custom models")
        if method != "sample" and has_rule:
            closed = self._closed_limit(which, target)
            if method == "closed" or closed.kind != "inconclusive":
                return closed
        return self._sampled_limit(which, target, steps)

    def _closed_limit(self, which, target):
        # the model's rule decides the kind; a finite limit at a finite
        # endpoint also gets its value by graded integration
        shift = self.beta if which == "left" else self.gamma
        kind, ev = self.model.limit_rule(which, target, self._k0, self._ratio, shift)
        l, r = self.model.interval
        boundary = l if which == "left" else r
        value = None
        if kind == "finite" and math.isfinite(boundary):
            value = self._boundary_value(boundary, target)
        return LimitResult(kind, value, "closed", ev)

    def _boundary_value(self, boundary, target):
        try:
            log_val = self._log_target_at_boundary(boundary, target)
        except (NumericError, FloatingPointError):
            return None
        if log_val is None:
            return None
        return math.exp(log_val) if log_val <= _LOG_HUGE else math.inf

    def _approach(self, which, count):
        # x_1..x_count marching to a boundary: boundary +- |c - boundary| 2^-n
        # for a finite one, c -+ 2^n for an infinite one
        l, r = self.model.interval
        boundary = l if which == "left" else r
        inward = 1.0 if which == "left" else -1.0
        if math.isfinite(boundary):
            gap = abs(self.c - boundary)
            return [boundary + inward * (gap * 0.5**n) for n in range(1, count + 1)]
        return [self.c - inward * 2.0**n for n in range(1, count + 1)]

    def _sampled_limit(self, which, target, steps):
        log_cap = math.log(DIVERGENCE_CAP)
        points = self._approach(which, steps)
        field = "log_v" if target == "v" else "log_p"
        sweep, effort = self._stabilized(points, field, stop=log_cap)
        log_vals = []
        for k, lv in enumerate(getattr(sweep, field).tolist()):
            log_vals.append(lv)
            if lv >= log_cap:
                evidence = {"points": points[:k + 1], "log_values": log_vals,
                            "cap": DIVERGENCE_CAP}
                return LimitResult("divergent", None, "sample", {**evidence, **effort})
        vals = np.exp(np.array(log_vals))
        incs = np.maximum(np.diff(vals), 0.0)
        scale_ref = max(float(vals[-1]), 1e-300)
        evidence = {"points": points, "values": vals.tolist(), **effort}
        if float(np.max(incs)) <= 1e-11 * scale_ref:
            evidence["tail_relative"] = 0.0
            return LimitResult("finite", float(vals[-1]), "sample", evidence)
        tail_incs = incs[-6:]
        ratios = [
            tail_incs[i + 1] / tail_incs[i]
            for i in range(len(tail_incs) - 1)
            if tail_incs[i] > 0.0
        ]
        if not ratios:
            evidence["tail_relative"] = 0.0
            return LimitResult("finite", float(vals[-1]), "sample", evidence)
        r_med = float(np.median(ratios))
        evidence["increment_ratio"] = r_med
        if r_med >= 0.98:  # increments shrink too slowly to sum to a limit
            return LimitResult("divergent", None, "sample", evidence)
        tail = float(tail_incs[-1]) * r_med / (1.0 - r_med)
        evidence["tail_relative"] = tail / scale_ref
        if tail / scale_ref < 0.05:  # the geometric tail barely moves the value
            return LimitResult("finite", float(vals[-1]) + tail, "sample", evidence)
        return LimitResult("inconclusive", None, "sample", evidence)
