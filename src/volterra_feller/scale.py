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
pass outward from c along one graded grid that has every requested point
as an edge.  It carries E and either log p or the logs of I, the inner
antiderivative int_c^x (p' sigma~^2)^(-1), and of v.  Panels are halved,
each round re-measuring only the open ones, until E and -E - log sigma~^2
each move at most about one nat across their 12 Gauss nodes.  Every
integral of the sweep (p, I, v and the series terms below) is then one
log-space rule: the Gauss integration matrix S[j, k] = int_{-1}^{t_j} l_k
(spectral integration), with the Gauss weights as a last column, applied
to the integrand divided by its panel maximum, gives the partial integrals
to the nodes and the panel total.  Only an integral whose node values a
later integrand reads forms them: each inner integral I_k and each series
term before the last.  p, and v on a sweep that carries no later term,
keep their panel totals alone.
Panels that more halving would not resolve integrate the inner integrands
on sub-panels graded from both ends instead.
A leg reaching a singular point s (a finite endpoint or an interior zero
of sigma) halves its way toward s, and the panel touching s integrates a
power law C |y - s|^beta fitted to each log integrand at its nodes.  The
base grid, and with it the depth toward s, is doubled from 64 panels until
the requested quantity agrees between rounds at every point (``quad_tol``
in log space, or ``NumericError``).  Legs under shifts of their own (the
staged sufficient test's stages) double in one batch: a round's passes, of
every leg still open, share one refinement pass, as do the first two
rounds (64 and 128 base panels), since no value settles before the second;
each pass then integrates on its own, exactly as it would alone.

Each built-in model family keeps its closed forms on its own class, and
``ScaleContext`` and ``feller.family_test`` use whichever a model has:

* ``exponent(y, c, k0, ratio, shift)``: E(y), elementwise in y, with
  ``ratio`` = K0'/K0 and ``shift`` the beta-or-gamma value: an array of one
  per y, or one number for all the nodes of a sweep's leg, which lies on
  one side of c;
* ``limit_rule(which, target, k0, ratio, shift)``: (kind, evidence) for the
  limit of v or |p| at one boundary under that side's shift, which it
  decides: kind is 'finite' or 'divergent';
* ``interior_singularities()``: interior zeros of sigma, treated like
  endpoints;
* ``family_verdicts(k0, kp0, emit)``: the family's printed inequalities,
  emitted as (boundary, verdict, theorem, evidence) with string names.

``CustomModel`` has none of them: E comes from the sweep's integration
matrix applied to 2 b~_c / sigma~^2, limits from a sweep to a finite
endpoint or from sampling toward an infinite one, and ``family_test`` does
not apply.  The ``family`` class attribute is a data tag only.

The iterated-integral series u_c = sum_n u_{c,n} built from the recursion

    u_{c,0} = 1,
    u_{c,n}(x) = 2 int_c^x p'_c(y) int_c^y u_{c,n-1}(z) / (p'_c(z)
                 sigma~(z)^2) dz dy,

satisfies 1 + v_c <= u_c <= exp(v_c); partial sums of it solve the
associated second-order equation u = (1/2) sigma~^2 u'' + b~_c u' in the
limit.  Its first term is v_c, and ``u_series`` carries each later one on
v's sweep as two more integrals by the same rule (u_{c,n-1} weights the
inner integrand, also on graded sub-panels), under the same doubling rule
and ``NumericError`` as v.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import legval

from ._quad import (gl_integration_matrix, gl_legendre_coefficients, gl_partials, gl_rule,
                    outward_edges)
from .errors import NumericError, PreconditionError, check_count, check_real

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
_FIT_TOL = 1e-9  # a fitted exponent this near -1 is undecided: fits round by 2e-11


def _power_law_integrals(log_f, x, x_a, x_b):
    # logs of int C |y - s|^beta from a to each node and to b (last column),
    # and beta, for the least squares fit log f = log C + beta x at the
    # nodes' x = log |y - s|, with x_a, x_b those of a and b.  The sweep
    # reads a value at s only where it is finite, so a range reaching s
    # (x = -inf) under beta <= -1 is a misfit: nan, which forces another
    # doubling round, where +inf in two rounds would settle as a divergence
    xc = x - x.mean(axis=1, keepdims=True)
    beta = np.sum(xc * log_f, axis=1, keepdims=True) / np.sum(xc * xc, axis=1, keepdims=True)
    log_c = log_f.mean(axis=1, keepdims=True) - beta * x.mean(axis=1, keepdims=True)
    g1, g2 = (beta + 1.0) * x_a[:, None], (beta + 1.0) * np.column_stack([x, x_b])
    top = np.maximum(g1, g2)
    out = log_c - np.log(np.abs(beta + 1.0)) + top + np.log(-np.expm1(np.minimum(g1, g2) - top))
    return np.where(top < np.inf, out, np.nan), beta[:, 0]


def _depths(s, leg, n_panels):
    # distances from a singular point s of the edges a leg of length leg
    # places toward it: leg 2^-k for k = 1 .. n_panels / 4, down to 2^-36 |s|
    # (1e-300 at s = 0), short of the float resolution of y - s
    d = leg * 0.5 ** np.arange(1, n_panels // 4 + 1)
    return d[d >= max(2.0**-36 * abs(s), 1e-300)]


def _gauss_nodes(a, b):
    # the Gauss nodes of panels a -> b, a row each
    return a[:, None] + (0.5 * (b - a))[:, None] * (1.0 + gl_rule(_ORDER)[0])


def _at_any(x, points):
    # x == any of a few points, elementwise: cheaper than np.isin for so few
    hit = np.zeros(x.shape, dtype=bool)
    for s in points:
        hit |= x == s
    return hit


def _by_segment(x, m, seg):
    # x @ m with the rows of each segment (seg: one id per row, in runs;
    # None: one segment) in a BLAS call of their own, since BLAS rounds a row
    # by its place in the call
    if seg is None:
        return x @ m
    cuts = [0, *(np.flatnonzero(seg[1:] != seg[:-1]) + 1).tolist(), len(seg)]
    return np.concatenate([x[i:j] @ m for i, j in zip(cuts, cuts[1:])])


def _scatter(at, values):
    # the array with values placed at positions at
    out = np.empty_like(values)
    out[at] = values
    return out


def _place(rank, parts):
    # the rows of parts, one after another, each moved to its place in rank
    out = np.empty((len(rank),) + parts[0].shape[1:])
    start = 0
    for part in parts:
        out[rank[start:start + len(part)]] = part
        start += len(part)
    return out


def _exp(log_value):
    # exp, as +inf past _LOG_HUGE (nan included) rather than OverflowError
    return math.exp(log_value) if log_value <= _LOG_HUGE else math.inf


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


def kernel_scalars(kernel):
    """(K(0), K'(0)) of a kernel after checking the standing sign conditions:
    K(0) finite and positive, K'(0) finite and nonpositive."""
    k0, kp0 = kernel.k0_kprime0()
    return check_real("K(0)", k0, gt=0.0), check_real("K'(0)", kp0, le=0.0)


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
        for name in ("kappa", "theta", "sigma", "x0"):
            check_real(name, getattr(self, name), gt=0.0)

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
        check_real("a", self.a)
        check_real("b", self.b, gt=self.a)
        for name in ("kappa", "sigma"):
            check_real(name, getattr(self, name), gt=0.0)
        for name in ("theta", "x0"):
            check_real(name, getattr(self, name), gt=self.a, lt=self.b)

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
        check_real("alpha", self.alpha, gt=1.0)
        check_real("delta", self.delta, ge=0.0, lt=1.0)
        check_real("sigma", self.sigma, gt=0.0)
        check_real("x0", self.x0)

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
        # p' decays superexponentially, so v' ~ 1 / b~_c ~ 1 / (K0 y^alpha)
        return "finite", {"rule": "alpha > 1", "alpha": self.alpha, "delta": self.delta}

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
        _require(isinstance(l, numbers.Real) and isinstance(r, numbers.Real) and l < r,
                 f"interval must be two increasing reals, got ({l!r}, {r!r})")
        check_real("x0", self.x0, gt=l, lt=r)

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
    method : 'closed' (exponent arithmetic), 'sweep' (a sweep run to a
        finite endpoint) or 'sample' (geometric sampling)
    evidence : exponents or the sampled sequence backing the call; sampled
        and swept limits, and closed ones valued at a finite endpoint, also
        carry the sweep's effort: ``base_panels``, ``doubling_rounds``
        (sweeps run) and ``last_max_delta`` (largest |change| of the log
        values between the last two rounds) or, read nan twice, the end
        panel's ``fitted_exponent`` and its signed ``fitted_exponent_change``
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
    log_u: np.ndarray  # log (u_1 + ... + u_n), the series less its 1; log v at n = 1


# the checked field's name in NumericError messages
_QUANTITY = {"log_i": "inner antiderivative", "log_p": "scale", "log_v": "test function",
             "log_u": "series"}


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
        c = check_real("c", self.model.x0 if self.c is None else self.c, gt=l, lt=r)
        object.__setattr__(self, "c", c if self.c is None else float(c))
        check_real("beta", self.beta)
        check_real("gamma", self.gamma)
        check_real("quad_tol", self.quad_tol, gt=0.0)
        object.__setattr__(self, "max_panels", check_count("max_panels", self.max_panels, 64))
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

    def _log_sigma_tilde_sq(self, sigma):
        # log sigma~^2 from the model's sigma at the points
        with np.errstate(divide="ignore"):
            return 2.0 * (math.log(self._k0) + np.log(sigma))

    # -- exponent E(y) = log p'_c(y) -----------------------------------------

    def _side_shift(self, y):
        return np.where(np.asarray(y, dtype=float) < self.c, self.beta, self.gamma)

    @property
    def _closed_exponent(self):
        return getattr(self.model, "exponent", None) is not None

    def _exponent_batch(self, pts, shift):
        # the model's closed form, under one shift or one per point
        y = np.asarray(pts, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            return self.model.exponent(y, self.c, self._k0, self._ratio, shift)

    def log_scale_derivative(self, x):
        """log p'_c(x), elementwise on an array of reals; finite wherever x is interior."""
        arr = self._check_interior(x, arrays=True)
        pts = np.atleast_1d(arr).ravel()
        if self._closed_exponent:
            out = self._exponent_batch(pts, self._side_shift(pts))
        else:
            # custom models read E off one outward sweep per side of c
            out = np.zeros_like(pts)
            for side in (pts > self.c, pts < self.c):
                if side.any():
                    out[side] = self._sweep(pts[side], (64,), "log_p")[0].e[0]
        if np.isscalar(x) or arr.ndim == 0:
            return float(out[0])
        return out.reshape(arr.shape)

    def scale_derivative(self, x):
        """p'_c(x) = exp E(x); overflows to +inf rather than raising."""
        out = self.log_scale_derivative(x)
        if isinstance(out, float):
            return _exp(out)
        with np.errstate(over="ignore"):
            return np.exp(out)

    def _check_interior(self, x, arrays=False):
        # x as floats, if a real number (with arrays, or an array of reals;
        # bools count) strictly inside the interval; else a ValueError
        arr = np.asarray(x)
        if arrays and (arr.ndim or isinstance(x, np.ndarray)):
            _require(arr.dtype.kind in "biuf", f"x must hold real numbers, got dtype {arr.dtype}")
        elif not isinstance(x, numbers.Real):
            check_real("x", x)  # raises, naming x
        arr, (l, r) = arr.astype(float), self.model.interval
        _require(np.all(np.isfinite(arr) & (arr > l) & (arr < r)),
                 f"argument must lie strictly inside ({l}, {r})")
        return arr

    # -- the sweep -------------------------------------------------------------

    def _interior_singularities(self):
        # interior zeros of sigma a model declares; none for custom models
        return getattr(self.model, "interior_singularities", tuple)()

    def _edges(self, lo, hi, n_panels, extra=()):
        # sorted distinct edges: the base grid of n_panels on [lo, hi], and extra's
        half = max(n_panels // 2, 8)
        parts = [outward_edges(lo, hi, half), outward_edges(hi, lo, half), *extra]
        # integrands on wide single-sign intervals vary on a log scale, so
        # endpoint grading alone starves the interior; keep panels per decade
        if lo > 0.0 and hi >= 16.0 * lo:
            parts.append(np.geomspace(lo, hi, half))
        elif hi < 0.0 and lo <= 16.0 * hi:
            parts.append(-np.geomspace(-hi, -lo, half))
        return np.unique(np.concatenate(parts))

    def _node_values(self, a, b, inner, ends=(), seg=None, shifts=None):
        # (E, log sigma~^2, change of E) at the Gauss nodes of panels
        # running from a (the end nearer c) to b on one side of c: what the
        # spread test and the integrals read, log sigma~^2 for inner sweeps
        # only.  _advance forms the nodes where it reads them.  A row's shift
        # is its segment's (seg as for _refine, shifts their (beta, gamma);
        # None: this context's) on its side of c.  Custom models give E
        # relative to E(a), from the integration matrix applied to g = 2 b~_c
        # / sigma~^2, plus the panel's total change of E, by BLAS products on
        # one segment's rows at a time, in the order given.  On a panel
        # ending at s in ends, g's pole h(s) / (y - s), h(s) read off the
        # interpolant of h = g (y - s), integrates in closed form.
        beta, gamma = (self.beta, self.gamma) if shifts is None else shifts[seg].T[..., None]
        y = _gauss_nodes(a, b)
        if self._closed_exponent:
            log_sig = self._log_sigma_tilde_sq(self.model.diffusion(y)) if inner else None
            return self._exponent_batch(y, beta if b[-1] < self.c else gamma), log_sig, None
        sigma = self.model.diffusion(y)  # once, for both sigma~^2 and its log
        log_sig = self._log_sigma_tilde_sq(sigma) if inner else None
        half = 0.5 * (b - a)
        g = self.b_tilde(y) + self._ratio * np.where(y < self.c, beta, gamma)
        g = 2.0 * g / (self._k0 * sigma) ** 2
        e = -half[:, None] * _by_segment(g, gl_integration_matrix(_ORDER).T, seg)
        at_s = _at_any(b, ends)
        if at_s.any():
            seg_s = None if seg is None else seg[at_s]
            z = y[at_s] - b[at_s, None]
            h = g[at_s] * z
            h_s = _by_segment(h, gl_legendre_coefficients(_ORDER).sum(axis=0), seg_s)[:, None]
            rest = _by_segment((h - h_s) / z, gl_integration_matrix(_ORDER).T, seg_s)
            e[at_s] = -(h_s * np.log(z / (a - b)[at_s, None]) + half[at_s, None] * rest)
        return e, log_sig, -half * _by_segment(g, gl_rule(_ORDER)[1], seg)

    def _refine(self, a, b, inner, ends, seg=None, shifts=None):
        # Halve panels until E (and, for inner sweeps, -E - log sigma~^2)
        # moves at most _NAT across the nodes; the 12-node interpolant of an
        # exponential that moves one nat is good to about 1e-14, and the
        # base-grid doubling in _stabilized checks what the spread misses.
        # Flagged: panels touching a singular point in ends, never halved,
        # and panels the rounds could not bring under _NAT.  Resolved and
        # flagged panels never change again: each round forms node values
        # only for the open ones and keeps the rows of those it is done
        # with; one sort puts all panels in outward order, and each round's
        # rows go straight to their place in it.
        # A batch may hold several segments on one side of c, each tiling a
        # range outward: seg gives each panel's segment, in runs of rising
        # ids (None: one segment), and shifts each segment's (beta, gamma)
        # (None: this context's).  The panels come back segment by segment,
        # each segment's exactly as if refined alone.  A round's halves are
        # laid out per segment, its first halves then its second halves, so
        # a custom model's BLAS calls in _node_values take them in that
        # order; outward keeps the rows' outward order for the next round.
        seg = np.zeros(len(a), dtype=np.intp) if seg is None else seg
        fallback = _at_any(a, ends) | _at_any(b, ends)
        vals = self._node_values(a, b, inner, ends, seg, shifts)
        outward = np.arange(len(a))
        done = [[] for _ in range(7)]  # rows kept by each round: seg, a, b, flags, node values
        for left in range(_MAX_BISECTIONS, -1, -1):
            e, log_sig, de = vals
            # max - min of node-major copies: exact, 10-15x faster than by rows.
            # Rounding is symmetric, so -E - log sigma~^2 is the exact negation
            # of E + log sigma~^2 and has its spread
            f = e.T.copy()
            spread = f.max(axis=0) - f.min(axis=0)
            if inner:
                f += log_sig.T
                spread = np.maximum(spread, f.max(axis=0) - f.min(axis=0))
            # flag what the rounds left could not bring under _NAT; halve the
            # rest of what is over it
            fallback |= ~(spread <= _NAT * 2.0**left)
            split = ~(fallback | (spread <= _NAT))
            keep = ~split
            for rows, v in zip(done, (seg, a, b, fallback, e, log_sig, de)):
                rows.append(None if v is None else v[keep])
            if not split.any():
                break  # always by the last round, which flags what is left
            vals = e = log_sig = de = f = None  # this round's rows go before the next's come
            take = outward[split[outward]]
            a, b, seg = a[take], b[take], seg[take]
            mid = 0.5 * (a + b)
            # each split panel's first half, then its second, outward
            a, b, seg = np.repeat(a, 2), np.repeat(b, 2), np.repeat(seg, 2)
            a[1::2] = b[0::2] = mid
            lay = np.argsort(2 * seg + np.arange(len(seg)) % 2, kind="stable")
            a, b, seg, outward = a[lay], b[lay], seg[lay], _scatter(lay, np.arange(len(lay)))
            fallback = np.zeros(len(a), dtype=bool)
            vals = self._node_values(a, b, inner, (), seg, shifts)
        seg, a, b, fallback = map(np.concatenate, done[:4])
        del done[:4]  # each round's rows of those go before the node values are placed
        order = np.lexsort((a if b[0] > a[0] else -a, seg))
        a, b, fallback, seg = a[order], b[order], fallback[order], None
        # every round's node values go straight to their place in that order
        rank, vals = _scatter(order, np.arange(len(order))), []
        for rows in done:
            vals.append(None if rows[0] is None else _place(rank, rows))
            rows.clear()
        return a, b, tuple(vals), fallback

    def _advance(self, a, b, vals, fallback, state, inner, ends):
        # integrate refined panels a -> b (outward from c), with their node
        # values and flags from _refine, on from state = (E, log p, logs of
        # (I_k, u_k) for k = 1 .. n) at a[0]; returns the panel ends, the
        # _Sweep rows there (E only for custom models; p, or else I_1, v =
        # u_1 and log (u_1 + ... + u_n)) with the exponents fitted to p's or
        # u_n's integrand, and the state at the last end.  Every integral is
        # one call of outward; only the integrals whose node values the next
        # integrand reads form them (each I_k, u_k for k < n).
        e0, p0, starts = state
        e, log_sig, de = vals
        log_half = np.log(np.abs(0.5 * (b - a)))
        nan = np.full(len(b), np.nan)
        e_a = e_b = nan
        if de is not None:
            e_b = e0 + np.cumsum(de)
            e_a = np.concatenate([[e0], e_b[:-1]])
            e = e + e_a[:, None]
        graded = fallback
        if ends:
            at_a = _at_any(a, ends)
            end = at_a | _at_any(b, ends)
            graded = fallback & ~end
            s = np.where(at_a, a, b)[end]
            # log distances from s of the nodes, of a and of b
            dist = (np.log(np.abs(_gauss_nodes(a[end], b[end]) - s[:, None])),
                    np.log(np.abs(a[end] - s)),
                    np.log(np.abs(b[end] - s)))
        partials = gl_partials(_ORDER)

        def outward(first, log_f, inner_weight=None, at_nodes=True):
            # log F at the panel ends and, if at_nodes, at the nodes (else
            # None: no later integrand reads them), for F the integral of
            # exp(log_f) on from exp(first) at a[0].  The integration matrix,
            # with the Gauss weights as a last column for the panel total,
            # acts on f over its panel maximum, so nothing leaves log space;
            # the product keeps its shape whatever is read, as BLAS rounds a
            # row by its place in the call.  Next to c, the series' u_k ~
            # (y - c)^2k outgrows the 12-node interpolant once 2k > 11; node
            # partials are clamped at 0 and carry a share of order
            # (panel / |x - c|)^2k of u_k(x).  An inner integral, log_f =
            # inner_weight - E - log sigma~^2, takes the graded rule on graded
            # panels.  Fitted exponents: nan off ends.
            # Steps run in place where a temporary would be a fresh rows x
            # nodes array.
            top = log_f.T.copy().max(axis=0)  # node-major, as in _refine
            g = log_f - top[:, None]
            g = np.exp(g, out=g) @ partials
            if not at_nodes:
                g = g[:, -1:]  # the panel totals alone
            log_g = np.log(np.maximum(g, 0.0, out=g), out=g)
            log_g += (top + log_half)[:, None]
            if inner_weight is not None and graded.any():
                log_g[graded] = self._log_inner_intervals(
                    a[graded], b[graded], e_a[graded], inner_weight[graded]
                )
            fit = nan.copy()
            if ends:
                law, fit[end] = _power_law_integrals(log_f[end], *dist)
                log_g[end] = law if at_nodes else law[:, -1:]
            f_b = np.logaddexp.accumulate(np.concatenate([[first], log_g[:, -1]]))
            if not at_nodes:
                return f_b[1:], None, fit
            # log(F(a) + partial) at the nodes, written out: np.logaddexp
            # takes twice as long
            f_a, part = f_b[:-1, None], log_g[:, :-1]
            top = np.maximum(f_a, part)
            nodes = f_a - part  # contiguous, unlike part
            for step in (np.abs, np.negative, np.exp, np.log1p):
                step(nodes, out=nodes)
            nodes += top
            np.copyto(nodes, top, where=~(top > -np.inf))
            return f_b[1:], nodes, fit

        if not inner:
            p_b, _, fit = outward(p0, e, at_nodes=False)
            return b, (e_b, nan, p_b, nan, nan, fit), (e_b[-1], p_b[-1], starts)
        # u_k = 2 int p' I_k and I_k = int u_(k-1) / (p' sigma~^2), u_0 = 1
        log_u = np.zeros_like(e)
        inners, terms = [], []
        for k, (ik0, uk0) in enumerate(starts.T, 1):
            log_f = log_u - e
            log_f -= log_sig
            ik_b, log_i, _ = outward(ik0, log_f, log_u)
            # the outer integrand takes the inner one's rows, and I_k's node
            # values and u_(k-1) go before the outer integral forms its own
            log_f = np.add(_LOG2, e, out=log_f)
            log_f += log_i
            log_i = log_u = None
            uk_b, log_u, fit = outward(uk0, log_f, at_nodes=k < len(starts.T))
            inners.append(ik_b)
            terms.append(uk_b)
        last = np.array([[f[-1] for f in inners], [f[-1] for f in terms]])
        log_u = np.logaddexp.reduce(terms, axis=0)
        return b, (e_b, inners[0], nan, terms[0], log_u, fit), (e_b[-1], nan, last)

    def _sweep(self, xs, counts, field="log_v", stop=math.inf, n_terms=1):
        # _sweep_legs for the one leg xs under this context's shifts
        return self._sweep_legs([(self, xs)], counts, field, stop, n_terms)[0]

    def _sweep_legs(self, legs, counts, field="log_v", stop=math.inf, n_terms=1):
        """Per leg, (E, log I, log p, log v, log u) at its points by one
        cumulative pass from c on the grid of each base-panel count in
        ``counts``, with u the first n_terms terms of the series after its 1,
        and the exponents fitted to p's integrand (log_p) or u_n's at singular
        points; row i of every field and of the exponents is the pass of
        counts[i].  A sweep for ``field`` log_p carries E and p only; any
        other all but p.

        A leg is a (context, points) pair: this context under the shifts the
        leg runs under, and points all on one side of c, the same side for
        every leg.  A count's grid for a leg is ``_edges`` from c to its
        farthest x with every x as an edge, plus, for each singular point s
        on the leg [lo, hi], s itself and s -+ (hi - lo) 2^-k for k = 1 ..
        count / 4 down to 2^-36 |s| (1e-300 at s = 0), short of the float
        resolution of y - s.  Each pass, one per leg and count, runs outward
        in chunks of 1, 2, 4, ... of its leg's points and ends after the
        chunk in which ``field`` first reaches ``stop``; points beyond read
        nan.  The passes still running, of every leg, refine each chunk in
        one batch (``_refine``, a segment each), then integrate it one by one
        (``_advance``, on its leg's context), each exactly as it would alone.
        """
        row = _Sweep._fields.index(field)
        singular = (*self.model.interval, *self._interior_singularities())
        # per leg: context, far end, points outward, inverse, rows; per pass:
        # context, singular points, edges outward, the points' places, rows
        reads, passes = [], []
        for ctx, xs in legs:
            xs = np.asarray(xs, dtype=float)
            uniq, inv = np.unique(xs, return_inverse=True)
            far = xs[np.argmax(np.abs(xs - self.c))]
            lo, hi = (self.c, far) if far > self.c else (far, self.c)
            # finite endpoints and interior zeros of sigma on the leg: next to
            # one, the integrands keep a power law that no halving resolves
            ends = tuple(s for s in singular if lo <= s <= hi)
            out = np.full((6, len(counts), len(uniq)), np.nan)
            for i, n_panels in enumerate(counts):
                extra = [uniq]
                for s in ends:
                    d = _depths(s, hi - lo, n_panels)
                    extra.append(np.clip(np.concatenate([[s], s - d, s + d]), lo, hi))
                edges = self._edges(lo, hi, n_panels, extra)
                at = np.searchsorted(edges, uniq)  # every x is an edge
                if far < self.c:  # outward
                    edges, at = edges[::-1], len(edges) - 1 - at[::-1]
                passes.append((ctx, ends, edges, at, out[:, i]))
            if far < self.c:
                uniq, inv = uniq[::-1], len(uniq) - 1 - inv
            reads.append((ctx, far, uniq, inv, out))
        sign = 1.0 if far > self.c else -1.0
        ends = tuple(set().union(*(p[1] for p in passes)))
        shifts = (np.array([[p[0].beta, p[0].gamma] for p in passes], dtype=float)
                  if any(ctx is not self for ctx, _ in legs) else None)  # None: this context's
        states = [(0.0, -np.inf, np.full((2, n_terms), -np.inf))] * len(passes)
        start = [0] * len(passes)  # each pass's first edge of the next chunk
        live, done, chunk, inner = list(range(len(passes))), 0, 1, field != "log_p"
        while live:
            last = [passes[p][3][:done + chunk][-1] for p in live]  # the chunk's last edges
            a = np.concatenate([passes[p][2][start[p]:k] for p, k in zip(live, last)])
            b = np.concatenate([passes[p][2][start[p] + 1:k + 1] for p, k in zip(live, last)])
            seg = np.repeat(live, [k - start[p] for p, k in zip(live, last)])
            # nan (a misfit end panel) and log 0 are values; _stabilized judges them
            with np.errstate(invalid="ignore", divide="ignore"):
                a, b, vals, fallback = self._refine(a, b, inner, ends, seg, shifts)
                j = 0
                for p, k in zip(live, last):
                    ctx, p_ends, edges, at, rows = passes[p]
                    # a pass's panels end at the first panel end on its last edge
                    j, i = j + 1 + int(np.argmax(b[j:] == edges[k])), j
                    b_p, cols, states[p] = ctx._advance(
                        a[i:j], b[i:j], [None if v is None else v[i:j] for v in vals],
                        fallback[i:j], states[p], inner, p_ends)
                    # the rows at the chunk's points, among panel ends rising outward
                    hit = np.searchsorted(sign * b_p, sign * edges[at[done:done + chunk]])
                    rows[:, done:done + chunk] = [col[hit] for col in cols]
                    start[p] = k
            done, chunk = done + chunk, 2 * chunk
            live = [p for p in live
                    if done < len(passes[p][3]) and not np.any(passes[p][4][row, :done] >= stop)]
        for ctx, far, uniq, _, out in reads if self._closed_exponent else ():
            out[0] = ctx._exponent_batch(uniq, ctx._side_shift(far))
        return [(_Sweep(*out[:5, :, inv]), out[5][:, inv]) for *_, inv, out in reads]

    def _sigma_inv_sq_fit(self, s):
        # (beta, bound) at a finite endpoint s, from the model alone: beta of
        # 1/sigma~^2 fitted on end panels reaching (r - l) 2^-k from s, for the
        # deepest k = n above _depths' float floor; integrable if beta > bound,
        # -1 + max(2 |change from k = n/2|, _FIT_TOL)
        l, r = self.model.interval
        n = len(_depths(s, r - l, 8192))
        if n < 2:
            raise PreconditionError(f"1/sigma~^2 cannot be fitted at {s:.6g}: interval too narrow")
        d = (r - l) * 0.5 ** np.array([n // 2, n])
        y = s + np.copysign(d, self.c - s)[:, None] * 0.5 * (1.0 - gl_rule(_ORDER)[0])
        x = np.log(np.abs(y - s))
        log_sig = self._log_sigma_tilde_sq(self.model.diffusion(y))
        with np.errstate(divide="ignore", invalid="ignore"):  # only beta is read
            beta = _power_law_integrals(-log_sig, x, x[:, 0], x[:, -1])[1]
        return float(beta[1]), -1.0 + max(2.0 * abs(float(beta[1] - beta[0])), _FIT_TOL)

    def _log_inner_intervals(self, a, b, e_a, log_w):
        # logs of int_a^x w / (p' sigma~^2) for x each Gauss node of the
        # panels a -> b and b itself, with log w given at the nodes (read
        # between them from its Legendre series, unless w = 1) and E(a) =
        # e_a (read for custom models only).  The integrand can vary by
        # thousands of nats across one panel, concentrating in an endpoint
        # layer of width 1/|E'|; sub-edges are graded geometrically from both
        # ends of each interval starting at that resolvable scale, so the 12
        # Gauss nodes of a sub-panel, read through _node_values, see a few
        # nats at most.
        from scipy.special import logsumexp  # imported on use: it takes 0.25 s to load

        lo = np.repeat(a[:, None], _ORDER + 1, axis=1)
        hi = np.column_stack([_gauss_nodes(a, b), b])
        span = hi - lo
        pair = np.stack([lo, hi])
        # sigma~^2 may be subnormal next to an endpoint: inf takes the finest grading
        with np.errstate(over="ignore"):
            g = 2.0 * self.b_tilde_shifted(pair) / self.sigma_tilde_sq(pair)
        g = np.max(np.abs(g), axis=0)
        rel0 = np.clip(1.0 / (np.fmax(g, 1.0) * np.abs(span)), 1e-13, 0.5)
        n_dbl = int(min(45, max(4, math.ceil(-math.log2(float(np.min(rel0)))))))
        ladder = np.minimum(rel0[..., None] * 2.0 ** np.arange(n_dbl + 1), 0.5)
        ladder = np.concatenate([np.zeros(ladder.shape[:-1] + (1,)), ladder], axis=-1)
        rel_edges = np.concatenate([ladder, 1.0 - ladder[..., ::-1]], axis=-1)
        sub_lo = lo[..., None] + span[..., None] * rel_edges[..., :-1]
        sub_hi = lo[..., None] + span[..., None] * rel_edges[..., 1:]
        e, log_sig, de = self._node_values(sub_lo.ravel(), sub_hi.ravel(), True)
        shape = sub_lo.shape + (_ORDER,)
        e, log_sig = e.reshape(shape), log_sig.reshape(shape)
        if de is not None:
            # E at each sub-panel start: E(a) plus the changes before it
            de = de.reshape(sub_lo.shape)
            e = e + (e_a[:, None, None] + np.cumsum(de, axis=-1) - de)[..., None]
        if log_w.any():  # a later series term's weight; v's is w = 1
            # panel coordinate t in [-1, 1] of each sub-panel node
            z = _gauss_nodes(sub_lo.ravel(), sub_hi.ravel()).reshape(shape)
            t = 2.0 * (z - a[:, None, None, None]) / (b - a)[:, None, None, None] - 1.0
            coef = (log_w @ gl_legendre_coefficients(_ORDER).T).T[..., None, None, None]
            log_h = legval(t, coef, tensor=False) - e - log_sig
        else:
            log_h = -e - log_sig
        log_half = np.log(np.abs(0.5 * (sub_hi - sub_lo)))[..., None]
        return logsumexp(log_h + np.log(gl_rule(_ORDER)[1]) + log_half, axis=(-2, -1))

    def _stabilized(self, xs, field, stop=math.inf, n_terms=1):
        # _stabilized_legs for the one leg xs, raising its NumericError
        (out,) = self._stabilized_legs([(self, xs)], field, stop, n_terms)
        if isinstance(out, NumericError):
            raise out
        return out

    def _stabilized_legs(self, legs, field, stop=math.inf, n_terms=1):
        """Sweep legs (as for ``_sweep_legs``) with 64, 128, ... base panels
        until, leg by leg, ``field`` agrees between consecutive rounds to
        max(quad_tol, 1e-12) at every point up to the first at or above
        ``stop``; ``n_terms`` series terms ride along.  The open legs' passes
        of a round run in one batch, and the first two rounds (64 and 128
        base panels) in one, as no leg settles before its second.

        Returns per leg its last sweep and effort (base panels at
        convergence, sweeps run and the largest |change| of ``field`` that
        the tolerance rule judged; or, after nan in two rounds at an interval
        endpoint, its end panel's ``fitted_exponent`` beta and its signed
        change), or, still open after ``max_panels``, its ``NumericError``.
        """
        tol, row = max(self.quad_tol, 1e-12), _Sweep._fields.index(field)
        # per leg: its result once settled; its points and, of its last round,
        # field's values, fitted exponents and which points agreed (none yet)
        out = [None] * len(legs)
        prev = [(np.asarray(xs, dtype=float), None, None, np.zeros(1, bool)) for _, xs in legs]
        n_panels = 64
        while n_panels <= self.max_panels and None in out:
            first = n_panels == 64 and 128 <= self.max_panels
            counts = (n_panels, 2 * n_panels) if first else (n_panels,)
            open_legs = [i for i, o in enumerate(out) if o is None]
            swept = self._sweep_legs([legs[i] for i in open_legs], counts, field, stop, n_terms)
            for i, (rows, fits) in zip(open_legs, swept):
                for sweep, fit, n in zip(zip(*rows), fits, counts):
                    (xs, before, prev_fit, ok), cur = prev[i], sweep[row]
                    if before is not None and out[i] is None:
                        reached = np.flatnonzero(cur >= stop)
                        m = reached[0] + 1 if reached.size else len(xs)
                        now, before = cur[:m], before[:m]
                        with np.errstate(invalid="ignore"):
                            settled = (now == -math.inf) & (before == -math.inf)
                            settled |= np.minimum(now, before) > _LOG_HUGE
                            delta = np.abs(now - before)
                            ok = settled | (delta <= tol)
                        misfit = np.isnan(now) & np.isnan(before)
                        misfit &= _at_any(xs[:m], self.model.interval)
                        if (ok | misfit).all():
                            # sweeps run: 64, 128, ..., n base panels
                            ev = {"base_panels": n, "doubling_rounds": n.bit_length() - 6}
                            if misfit.any():  # one endpoint at most: the leg's far end
                                ev["fitted_exponent"] = float(fit[misfit][0])
                                ev["fitted_exponent_change"] = float((fit - prev_fit)[misfit][0])
                            else:
                                ev["last_max_delta"] = float(np.max(delta[~settled], initial=0.0))
                            out[i] = _Sweep(*sweep), ev
                    prev[i] = xs, cur, fit, ok
            n_panels = 2 * counts[-1]
        return [o or NumericError(f"{_QUANTITY[field]} quadrature did not stabilize",
                                  x=float(xs[np.argmin(ok)]),
                                  last_log_value=float(before[np.argmin(ok)]),
                                  max_panels=self.max_panels)
                for o, (xs, before, _, ok) in zip(out, prev)]

    # -- public evaluations ----------------------------------------------------

    def _read(self, x, field, n_terms=1):
        # (_Sweep row as floats, sign of x - c) at an interior x by _stabilized
        # for field; at x = c or for an empty series: E = 0, other logs -inf, +1
        x = float(self._check_interior(x))
        if x == self.c or n_terms == 0:
            return _Sweep(0.0, -math.inf, -math.inf, -math.inf, -math.inf), 1.0
        sweep, _ = self._stabilized([x], field, n_terms=n_terms)
        return _Sweep(*(float(col[0]) for col in sweep)), (1.0 if x > self.c else -1.0)

    def scale(self, x) -> float:
        """p_c(x) = int_c^x p'.  Signed; zero at c; may overflow to +-inf."""
        row, sign = self._read(x, "log_p")
        return sign * _exp(row.log_p)

    def v(self, x) -> float:
        """First test function v_c(x) >= 0; may overflow to +inf."""
        return _exp(self._read(x, "log_v")[0].log_v)

    def v_prime(self, x) -> float:
        """d/dx v_c(x) = 2 p'_c(x) int_c^x (p'_c sigma~^2)^(-1) dz (signed)."""
        row, sign = self._read(x, "log_i")
        return sign * _exp(_LOG2 + row.e + row.log_i)

    def u_series(self, x, n_terms: int = 8) -> float:
        """Partial sum sum_{k=0}^{n_terms} u_{c,k}(x) of the iterated series;
        may overflow to +inf.  n_terms = 1 returns exactly 1 + v_c(x): the
        terms ride v's sweep, doubled until the sum less its 1 agrees between
        rounds to ``quad_tol`` in log space, else ``NumericError``.
        """
        n_terms = check_count("n_terms", n_terms, 0)
        return 1.0 + _exp(self._read(x, "log_u", n_terms)[0].log_u)

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
        x_k = c -+ 2^k for infinite ones, k = 1..steps; ValueError if one is
        not a float inside the interval) and classifies the increment tail;
        'auto' uses the model's closed rule when it has one, and that rule
        decides every built-in end; a custom model is swept to a finite
        endpoint and sampled toward an infinite one.

        All sample points are read off one outward sweep from c, which
        stops after the first point whose value reaches DIVERGENCE_CAP; the
        base grid is doubled until every point up to that one agrees
        between rounds, and a limit whose points never do is inconclusive
        with ``NumericError``'s details.  So does a sweep to a finite
        endpoint: a value that agrees is finite; nan in two rounds is
        divergent if the end panel's ``fitted_exponent`` beta, its value one
        round before and beta plus twice its ``fitted_exponent_change`` all
        sit below -1 - 1e-9, else inconclusive.  A finite closed limit there
        takes that sweep's value and effort keys (None if not finite).
        """
        _require(which in ("left", "right"), f"which must be 'left' or 'right', got {which!r}")
        _require(target in ("v", "p"), f"target must be 'v' or 'p', got {target!r}")
        _require(method in ("auto", "closed", "sample"), f"unknown method {method!r}")
        steps = check_count("steps", steps, 4)
        has_rule = hasattr(self.model, "limit_rule")
        if method == "closed" and not has_rule:
            raise PreconditionError("no closed-form limit rule for custom models")
        boundary = self.model.interval[0 if which == "left" else 1]
        if method != "sample" and has_rule:
            shift = self.beta if which == "left" else self.gamma
            kind, ev = self.model.limit_rule(which, target, self._k0, self._ratio, shift)
            swept = None
            if kind == "finite" and math.isfinite(boundary):
                swept = self._swept_limit(boundary, target)
                ev = {**ev, **swept.evidence} if swept.kind == "finite" else ev
            return LimitResult(kind, swept and swept.value, "closed", ev)
        if method == "auto" and math.isfinite(boundary):
            return self._swept_limit(boundary, target)
        return self._sampled_limit(which, target, steps)

    def _swept_limit(self, boundary, target):
        # the limit by sweeps run to a finite endpoint, as boundary_limit says
        field = "log_v" if target == "v" else "log_p"
        try:
            sweep, ev = self._stabilized([boundary], field)
        except NumericError as exc:
            return LimitResult("inconclusive", None, "sweep", exc.details)
        if "fitted_exponent" in ev:
            beta, change = ev["fitted_exponent"], ev["fitted_exponent_change"]
            # a power law clearly below -1, or a fit falling away from -1, as
            # for e^(1/x), steeper than any power
            steep = max(beta - change, beta, beta + 2.0 * change) < -1.0 - _FIT_TOL
            return LimitResult("divergent" if steep else "inconclusive", None, "sweep", ev)
        return LimitResult("finite", _exp(float(getattr(sweep, field)[0])), "sweep", ev)

    def _approach(self, which, count, name):
        # x_1..x_count marching to a boundary: boundary +- |c - boundary| 2^-n
        # for a finite one, c -+ 2^n for an infinite one; a ValueError naming
        # the count if some x_n overflows or rounds onto the boundary
        l, r = self.model.interval
        boundary = l if which == "left" else r
        inward = 1.0 if which == "left" else -1.0
        points = []
        for n in range(1, count + 1):
            if math.isfinite(boundary):
                x = boundary + inward * (abs(self.c - boundary) * 0.5**n)
            else:  # 2.0**n raises OverflowError from n = 1024
                x = self.c - inward * (2.0**n if n < 1024 else math.inf)
            if not l < x < r:
                raise ValueError(f"{name} must be at most {n - 1} toward the {which} boundary: "
                                 f"approach point {n} is not a float inside ({l}, {r})")
            points.append(x)
        return points

    def _sampled_limit(self, which, target, steps):
        log_cap = math.log(DIVERGENCE_CAP)
        points = self._approach(which, steps, "steps")
        field = "log_v" if target == "v" else "log_p"
        try:
            sweep, effort = self._stabilized(points, field, stop=log_cap)
        except NumericError as exc:
            return LimitResult("inconclusive", None, "sample", exc.details)
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
        tail_incs = incs[-6:]
        ratios = [
            tail_incs[i + 1] / tail_incs[i]
            for i in range(len(tail_incs) - 1)
            if tail_incs[i] > 0.0
        ]
        if float(np.max(incs)) <= 1e-11 * scale_ref or not ratios:
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
