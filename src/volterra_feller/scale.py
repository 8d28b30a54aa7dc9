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
power law C |y - s|^beta fitted to each log integrand at its nodes.
Two methods enter the sweep.  ``_sweep_passes`` runs one round of passes,
a pass being (shift, points, base panels): the drift shift it runs under,
its points on one side of c, and the base grid's panel count.
``_stabilized_legs`` doubles the base grid of legs, (shift, points), and
with it the depth toward s, from 64 panels until the requested quantity
agrees between rounds at every point (``quad_tol`` in log space, or
``NumericError``); every value, limit and staged-test stage reads it.  A
round's passes, of every leg still open, share one refinement pass, as do
the first two rounds (64 and 128 base panels), since no value settles
before the second; the passes then integrate in batches, each integral
one log-space rule over a batch's rows, with the BLAS products and running
sums kept per pass, so each pass gives the bits it gives alone.

Each built-in model family keeps its closed forms on its own class, and
``ScaleContext`` and ``feller.family_test`` use whichever a model has:

* ``exponent(y, c, k0, ratio, shift)``: E(y), elementwise in y, with
  ``ratio`` = K0'/K0 and ``shift`` the beta-or-gamma value: one number, or
  an array broadcasting against y (one per point, or one per panel of a
  sweep, which lies on one side of c);
* ``limit_rule(which, target, k0, ratio, shift)``: (kind, evidence) for the
  limit of v or |p| at one boundary under that side's shift, which it
  decides: kind is 'finite' or 'divergent'.  At a finite end its exponent
  must be affine in the shift: ``feller.sufficient_test`` reads a finite
  limit under the boundary shift as the limit of its stages;
* ``stage_rule(which, k0, ratio)``: (kind, evidence triples) for the stages
  of ``feller.sufficient_test`` toward an infinite end at K0' < 0 (CIR only);
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
# most rows (panels) in one integration batch of several passes: batching
# saves numpy's per-call overhead, but past about this size (a 96 KiB node
# array) a batch's rows x nodes temporaries cost more than the calls saved.
# With no cap, sufficient_test at K = e^-t took 857 against 776 ms on three
# power models and 86 against 75 ms on three CustomModel CIR clones (median
# of 7, 2-core host), whose staged chunks reach 44,000 rows
_BATCH_ROWS = 1024


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


def _runs(seg):
    # the row cuts of seg's runs of equal ids, for _by_segment
    return [0, *(np.flatnonzero(seg[1:] != seg[:-1]) + 1).tolist(), len(seg)]


def _by_segment(x, m, cuts):
    # x @ m with rows cuts[i]:cuts[i + 1] in a BLAS call each.  A row's bits
    # depend on the rows of its call, though not on where they sit in
    # memory: in a matrix-vector product on its place among them, and in a
    # matrix product on whether the call has one row (numpy then calls gemv)
    # or more (checked with OpenBLAS 0.3.31 for (n, 12) @ (12, 12), (12, 13)
    # and (12,), n = 1 .. 399, at row offsets 0 .. 9)
    out = np.empty(x.shape[:1] + m.shape[1:])
    for i, j in zip(cuts, cuts[1:]):
        np.matmul(x[i:j], m, out=out[i:j])
    return out


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

    def stage_rule(self, which, k0, ratio):
        """('divergent', [evidence triple]): at ratio = K0'/K0 < 0 the stages
        v_c(x_n; -x_n) grow without bound toward +inf (which = 'right'; the
        boundary shift decides 0), for every parameter set.

        With |r| = -ratio, cc = 2 / (K0 sigma)^2 and shift -x, E(y) = cc (|r|
        + K0 kappa) (y - c) - cc (K0 kappa theta + x |r|) log(y / c) is least
        at z* = (K0 kappa theta + x |r|) / (|r| + K0 kappa), below x once x >
        theta.  Laplace's method (Olver, Asymptotics and Special Functions,
        1974, ch. 3) on v_c(x) = 2 int_c^x int_c^y exp(E(y) - E(z)) /
        sigma~(z)^2 dz dy takes its end peak at y = x (width O(1)) and its
        interior one at z = z* (width O(sqrt x), sigma~^-2 = O(1 / x)), and
        x / z* -> 1 + K0 kappa / |r|, so log v_n = E(x_n) - E(z*) + O(log x_n):

            log v_n = cc x_n (K0 kappa - |r| log(1 + K0 kappa / |r|)) + O(log x_n),

        whose slope, the evidence, is > 0 since log(1 + u) < u for u > 0.
        """
        u = k0 * self.kappa / -ratio
        # u - log(1 + u), by its series where log1p would cancel
        gap = u - math.log1p(u) if u > 1e-4 else u * u * (0.5 - u / 3.0 + u * u / 4.0)
        slope = 2.0 / (k0 * self.sigma) ** 2 * -ratio * gap
        return "divergent", [("Laplace slope of log v_n in x_n (stages diverge iff > 0)",
                              slope, 0.0)]

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
    the caller's assertion; the library does not verify it, nor that sigma
    has no zero inside: sweeps do not look for one, and a leg across it can
    settle on a wrong value with a tight convergence report.
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
    method : 'closed' (a closed rule), 'sweep' (a sweep run to a finite
        endpoint) or 'sample' (geometric sampling): a label, not an option
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
        return self.b_tilde(x) + self._ratio * self._side_shift(x)

    def sigma_tilde(self, x):
        return self._k0 * self.model.diffusion(x)

    def sigma_tilde_sq(self, x):
        return self.sigma_tilde(x) ** 2

    def _log_sigma_tilde_sq(self, sigma):
        # log sigma~^2 from the model's sigma at the points
        with np.errstate(divide="ignore"):
            return 2.0 * (math.log(self._k0) + np.log(sigma))

    def _drift_over_var(self, y, sigma, shift):
        # 2 b~_c / sigma~^2 at y, from the model's sigma there, under shift
        return 2.0 * (self.b_tilde(y) + self._ratio * shift) / (self._k0 * sigma) ** 2

    # -- exponent E(y) = log p'_c(y) -----------------------------------------

    def _side_shift(self, y):
        # beta left of c, gamma from c on, elementwise
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
        """log p'_c(x), elementwise on an array of reals; finite wherever x is
        interior.  A ``CustomModel``'s is read off one 64-panel pass a side."""
        arr = self._check_interior(x, arrays=True)
        pts = np.atleast_1d(arr).ravel()
        if self._closed_exponent:
            out = self._exponent_batch(pts, self._side_shift(pts))
        else:
            out = np.zeros_like(pts)
            for side, shift in ((pts > self.c, self.gamma), (pts < self.c, self.beta)):
                if side.any():
                    out[side] = self._sweep_passes([(shift, pts[side], 64)], "log_p")[0][0].e
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

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

    def _node_values(self, a, b, inner, ends, seg, shifts):
        # (E, log sigma~^2, change of E) at the Gauss nodes of panels running
        # from a (the end nearer c) to b on one side of c: what the spread test
        # and the integrals read, log sigma~^2 for inner sweeps only.  _advance
        # forms the nodes where it reads them.  A row's shift is its segment's:
        # seg as for _refine, shifts one per segment.  Custom models give E
        # relative to E(a), from the integration matrix applied to
        # g = 2 b~_c / sigma~^2, plus the panel's total change of E, by BLAS
        # products on one segment's rows at a time, in the order given.  On a
        # panel ending at s in ends, g's pole h(s) / (y - s), h(s) read off the
        # interpolant of h = g (y - s), integrates in closed form.
        shift = shifts[seg][:, None]
        y = _gauss_nodes(a, b)
        if self._closed_exponent:
            log_sig = self._log_sigma_tilde_sq(self.model.diffusion(y)) if inner else None
            return self._exponent_batch(y, shift), log_sig, None
        sigma = self.model.diffusion(y)  # once, for both sigma~^2 and its log
        log_sig = self._log_sigma_tilde_sq(sigma) if inner else None
        half = 0.5 * (b - a)
        g = self._drift_over_var(y, sigma, shift)
        cuts = _runs(seg)
        e = -half[:, None] * _by_segment(g, gl_integration_matrix(_ORDER).T, cuts)
        at_s = _at_any(b, ends)
        if at_s.any():
            cuts_s = _runs(seg[at_s])
            z = y[at_s] - b[at_s, None]
            h = g[at_s] * z
            h_s = _by_segment(h, gl_legendre_coefficients(_ORDER).sum(axis=0), cuts_s)[:, None]
            rest = _by_segment((h - h_s) / z, gl_integration_matrix(_ORDER).T, cuts_s)
            e[at_s] = -(h_s * np.log(z / (a - b)[at_s, None]) + half[at_s, None] * rest)
        return e, log_sig, -half * _by_segment(g, gl_rule(_ORDER)[1], cuts)

    def _refine(self, a, b, inner, ends, seg, shifts):
        # Halve panels until E (and, for inner sweeps, -E - log sigma~^2)
        # moves at most _NAT across the nodes; the 12-node interpolant of an
        # exponential that moves one nat is good to about 1e-14, and the
        # base-grid doubling in _stabilized_legs checks what the spread misses.
        # Flagged: panels touching a singular point in ends, never halved,
        # and panels the rounds could not bring under _NAT.  Resolved and
        # flagged panels never change again: each round forms node values
        # only for the open ones and keeps the rows of those it is done
        # with; one sort puts all panels in outward order, and each round's
        # rows go straight to their place in it.
        # A batch holds one or more segments on one side of c, each tiling a
        # range outward: seg gives each panel's segment, in runs of rising
        # ids, and shifts each segment's shift.  The panels come back segment
        # by segment, each segment's exactly as if refined alone, with the
        # row cuts between segments.  A round's halves are laid out per
        # segment, its first halves then its second halves, so a custom
        # model's BLAS calls in _node_values take them in that order;
        # outward keeps the rows' outward order for the next round.
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
            # flag what the rounds left (none where the midpoint rounds onto an
            # end) could not bring under _NAT; halve the rest of what is over it
            mid = 0.5 * (a + b)
            fallback |= ~(spread <= np.where((mid != a) & (mid != b), _NAT * 2.0**left, _NAT))
            split = ~(fallback | (spread <= _NAT))
            more = split.any()
            keep = ~split if more else slice(None)  # the last round keeps its rows uncopied
            for rows, v in zip(done, (seg, a, b, fallback, e, log_sig, de)):
                rows.append(None if v is None else v[keep])
            if not more:
                break  # always by the last round, which flags what is left
            vals = e = log_sig = de = f = None  # this round's rows go before the next's come
            take = outward[split[outward]]
            a, b, seg, mid = a[take], b[take], seg[take], mid[take]
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
        a, b, fallback, cuts = a[order], b[order], fallback[order], _runs(seg[order])
        # every round's node values go straight to their place in that order
        rank, vals = _scatter(order, np.arange(len(order))), []
        for rows in done:
            vals.append(None if rows[0] is None else _place(rank, rows))
            rows.clear()
        return a, b, tuple(vals), fallback, cuts

    def _advance(self, a, b, vals, fallback, cuts, states, shifts, inner, ends):
        # integrate the refined panels a -> b (outward from c) of a batch of
        # passes, with their node values and flags from _refine: pass i has
        # rows cuts[i]:cuts[i + 1] and runs under shifts[i] on from states[i] =
        # (E, log p, logs of (I_k, u_k) for k = 1 .. n) at its first a.
        # Returns the _Sweep rows at the panel ends (E only for custom
        # models; p, or else I_1, v = u_1 and log (u_1 + ... + u_n)) with the
        # exponents fitted to p's or u_n's integrand, and each pass's state at
        # its last end.  Every integral is one call of outward on the whole
        # batch; only the integrals whose node values the next integrand
        # reads form them (each I_k, u_k for k < n).  A pass keeps the bits it
        # has alone: the steps that would round by the rows of a call run per
        # pass (the partials product, a BLAS call each; the running sums; a
        # custom model's E; graded panels, graded by all the panels of one
        # call), and the rest is elementwise or reduces along rows.
        heads, last = cuts[:-1], [j - 1 for j in cuts[1:]]  # each pass's first and last rows
        spans = list(zip(cuts, cuts[1:]))
        e, log_sig, de = vals
        log_half = np.log(np.abs(0.5 * (b - a)))
        nan = np.full(len(b), np.nan)
        e_a = e_b = nan
        if de is not None:
            e_b = np.concatenate([s[0] + np.cumsum(de[i:j]) for s, (i, j) in zip(states, spans)])
            e_a = np.empty_like(e_b)
            e_a[1:], e_a[heads] = e_b[:-1], [s[0] for s in states]
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
        # each pass's graded panels, by row, under its own shift
        graded = [(shift, i + np.flatnonzero(graded[i:j])) for shift, (i, j) in zip(shifts, spans)
                  if graded[i:j].any()] if graded.any() else []
        partials = gl_partials(_ORDER)

        def outward(first, log_f, inner_weight=None, at_nodes=True):
            # log F at the panel ends and, if at_nodes, at the nodes (else
            # None: no later integrand reads them), for F the integral of
            # exp(log_f) on from exp(first[i]) at pass i's first a.  The
            # integration matrix, with the Gauss weights as a last column for
            # the panel total, acts on f over its panel maximum, so nothing
            # leaves log space; the product keeps its shape whatever is read.
            # Next to c, the series' u_k ~ (y - c)^2k outgrows the 12-node
            # interpolant once 2k > 11; node partials are clamped at 0 and
            # carry a share of order (panel / |x - c|)^2k of u_k(x).  An
            # inner integral, log_f = inner_weight - E - log sigma~^2, takes
            # the graded rule on graded panels.  Fitted exponents: nan off
            # ends.  Steps run in place where a temporary would be a fresh
            # rows x nodes array.
            top = log_f.T.copy().max(axis=0)  # node-major, as in _refine
            g = log_f - top[:, None]
            g = _by_segment(np.exp(g, out=g), partials, cuts)
            if not at_nodes:
                g = g[:, -1:]  # the panel totals alone
            log_g = np.log(np.maximum(g, 0.0, out=g), out=g)
            log_g += (top + log_half)[:, None]
            for shift, rows in graded if inner_weight is not None else ():
                log_g[rows] = self._log_inner_intervals(a[rows], b[rows], e_a[rows],
                                                        inner_weight[rows], shift)
            fit = nan.copy()
            if ends:
                law, fit[end] = _power_law_integrals(log_f[end], *dist)
                log_g[end] = law if at_nodes else law[:, -1:]
            # running sums per pass: the first step from first, as
            # accumulate would take it, then accumulate on
            f_b = log_g[:, -1].copy()
            f_b[heads] = np.logaddexp(first, f_b[heads])
            for i, j in spans:
                np.logaddexp.accumulate(f_b[i:j], out=f_b[i:j])
            if not at_nodes:
                return f_b, None, fit
            # log(F(a) + partial) at the nodes, written out: np.logaddexp
            # takes twice as long
            f_a = np.empty_like(f_b)
            f_a[1:], f_a[heads] = f_b[:-1], first
            f_a, part = f_a[:, None], log_g[:, :-1]
            top = np.maximum(f_a, part)
            nodes = f_a - part  # contiguous, unlike part
            for step in (np.abs, np.negative, np.exp, np.log1p):
                step(nodes, out=nodes)
            nodes += top
            np.copyto(nodes, top, where=~(top > -np.inf))
            return f_b, nodes, fit

        if not inner:
            p_b, _, fit = outward([s[1] for s in states], e, at_nodes=False)
            new = [(e_b[j], p_b[j], s[2]) for j, s in zip(last, states)]
            return (e_b, nan, p_b, nan, nan, fit), new
        # u_k = 2 int p' I_k and I_k = int u_(k-1) / (p' sigma~^2), u_0 = 1
        starts = np.array([s[2] for s in states])  # pass, (I_k, u_k), k
        log_u = np.zeros_like(e)
        inners, terms = [], []
        for k, (ik0, uk0) in enumerate(starts.transpose(2, 1, 0), 1):
            log_f = log_u - e
            log_f -= log_sig
            ik_b, log_i, _ = outward(ik0, log_f, log_u)
            # the outer integrand takes the inner one's rows, and I_k's node
            # values and u_(k-1) go before the outer integral forms its own
            log_f = np.add(_LOG2, e, out=log_f)
            log_f += log_i
            log_i = log_u = None
            uk_b, log_u, fit = outward(uk0, log_f, at_nodes=k < starts.shape[2])
            inners.append(ik_b)
            terms.append(uk_b)
        at_last = np.array([inners, terms])[..., last]  # (I_k, u_k), k, pass
        new = [(e_b[j], np.nan, at_last[..., i]) for i, j in enumerate(last)]
        log_u = np.logaddexp.reduce(terms, axis=0)
        return (e_b, inners[0], nan, terms[0], log_u, fit), new

    def _sweep_passes(self, passes, field="log_v", stop=math.inf, n_terms=1):
        """One round of the sweep (``_stabilized_legs`` settles legs by
        rounds): per pass, (E, log I, log p, log v, log u) at its points by
        one cumulative pass from c, with u the first n_terms terms of the
        series after its 1, and the exponents fitted to p's integrand (log_p)
        or u_n's at singular points.  A sweep for ``field`` log_p carries E
        and p only; any other all but p.

        A pass is (shift, points, base panels): the drift shift it runs
        under, its points, all on one side of c (the same side for every
        pass), and its base grid's panel count n.  Its grid is ``_edges``
        with n panels from c to its farthest x with every x as an edge,
        plus, for each singular point s on the leg [lo, hi], s itself and s
        -+ (hi - lo) 2^-k for k = 1 .. n / 4 down to 2^-36 |s| (1e-300 at s
        = 0), short of the float resolution of y - s.  Each pass runs
        outward in chunks of 1, 2, 4, ... of its points and ends after the
        chunk in which ``field`` first reaches ``stop``; points beyond read
        nan.  The passes still running refine each chunk in one batch
        (``_refine``, a segment each, cut into passes), then integrate it in
        batches of consecutive passes within ``_BATCH_ROWS`` panels, or of one
        larger pass (``_advance``), with products and running sums kept per
        pass: each pass gives exactly the rows it gives alone.
        """
        row = _Sweep._fields.index(field)
        singular = (*self.model.interval, *self._interior_singularities())
        # per pass: singular points, edges outward, the places among them of the points off c,
        # rows, those points outward and the inverse; a point on c reads at_c, as _read reads c
        at_c = np.array([[0.0], [-np.inf], [-np.inf], [-np.inf], [-np.inf], [np.nan]])
        runs, leg, sign = [], None, 1.0
        for _, pts, n_panels in passes:
            if pts is not leg:  # the passes of one leg follow each other
                leg, xs = pts, np.asarray(pts, dtype=float)
                uniq, inv = np.unique(np.where(xs == self.c, np.nan, xs), return_inverse=True)
                uniq = uniq[:-1] if np.isnan(uniq[-1]) else uniq  # c's points index past it
                far = xs[np.argmax(np.abs(xs - self.c))]
                sign = sign if far == self.c else math.copysign(1.0, far - self.c)  # c's side
                lo, hi = (self.c, far) if sign > 0.0 else (far, self.c)
                # finite endpoints and interior zeros of sigma on the leg: next
                # to one, the integrands keep a power law that no halving resolves
                ends = tuple(s for s in singular if lo <= s <= hi)
                outward = (uniq[::-1], len(uniq) - 1 - inv) if sign < 0.0 else (uniq, inv)
            edges = at = ()
            if len(uniq):
                extra = [uniq]
                for s in ends:
                    d = _depths(s, hi - lo, n_panels)
                    extra.append(np.clip(np.concatenate([[s], s - d, s + d]), lo, hi))
                edges = self._edges(lo, hi, n_panels, extra)
                at = np.searchsorted(edges, uniq)  # every x is an edge
                if sign < 0.0:  # outward
                    edges, at = edges[::-1], len(edges) - 1 - at[::-1]
            runs.append((ends, edges, at, np.full((6, len(uniq)), np.nan), *outward))
        ends = tuple(set().union(*(r[0] for r in runs)))
        shifts = np.array([shift for shift, *_ in passes], dtype=float)
        states = [(0.0, -np.inf, np.full((2, n_terms), -np.inf))] * len(passes)
        start = [0] * len(passes)  # each pass's first edge of the next chunk
        live = [p for p, run in enumerate(runs) if len(run[2])]
        done, chunk, inner = 0, 1, field != "log_p"
        while live:
            last = [runs[p][2][:done + chunk][-1] for p in live]  # the chunk's last edges
            a = np.concatenate([runs[p][1][start[p]:k] for p, k in zip(live, last)])
            b = np.concatenate([runs[p][1][start[p] + 1:k + 1] for p, k in zip(live, last)])
            seg = np.repeat(live, [k - start[p] for p, k in zip(live, last)])
            # nan (a misfit end panel) and log 0 are values; _stabilized_legs judges them
            with np.errstate(invalid="ignore", divide="ignore"):
                a, b, vals, fallback, cuts = self._refine(a, b, inner, ends, seg, shifts)
                # batches of consecutive passes within _BATCH_ROWS rows, or of
                # one; opens: each batch's first pass
                opens = [0]
                for q in range(1, len(live)):
                    if cuts[q + 1] - cuts[opens[-1]] > _BATCH_ROWS:
                        opens.append(q)
                for q0, q1 in zip(opens, opens[1:] + [len(live)]):
                    i, j = cuts[q0], cuts[q1]
                    cols, new = self._advance(
                        a[i:j], b[i:j], [None if v is None else v[i:j] for v in vals],
                        fallback[i:j], [cut - i for cut in cuts[q0:q1 + 1]],
                        [states[p] for p in live[q0:q1]], shifts[live[q0:q1]], inner, ends)
                    for q, (p, k) in enumerate(zip(live[q0:q1], last[q0:q1]), q0):
                        _, edges, at, rows, _, _ = runs[p]
                        # the rows at the chunk's points, among panel ends rising outward
                        hit = cuts[q] - i + np.searchsorted(sign * b[cuts[q]:cuts[q + 1]],
                                                            sign * edges[at[done:done + chunk]])
                        rows[:, done:done + chunk] = [col[hit] for col in cols]
                        states[p], start[p] = new[q - q0], k
            done, chunk = done + chunk, 2 * chunk
            live = [p for p in live
                    if done < len(runs[p][2]) and not np.any(runs[p][3][row, :done] >= stop)]
        for shift, (*_, rows, uniq, _) in zip(shifts, runs) if self._closed_exponent else ():
            rows[0] = self._exponent_batch(uniq, shift)
        out = [np.concatenate([rows, at_c], axis=1)[:, inv] for *_, rows, _, inv in runs]
        return [(_Sweep(*full[:5]), full[5]) for full in out]

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

    def _log_inner_intervals(self, a, b, e_a, log_w, shift):
        # logs of int_a^x w / (p' sigma~^2) for x each Gauss node of the
        # panels a -> b and b itself, under shift, with log w given at the
        # nodes (read between them from its Legendre series, unless w = 1)
        # and E(a) = e_a (read for custom models only).  The integrand can
        # vary by thousands of nats across one panel, concentrating in an
        # endpoint layer of width 1/|E'|; sub-edges are graded geometrically
        # from both ends of each interval starting at that resolvable scale,
        # so the 12 Gauss nodes of a sub-panel, read through _node_values,
        # see a few nats at most.
        from scipy.special import logsumexp  # imported on use: it takes 0.25 s to load

        lo = np.repeat(a[:, None], _ORDER + 1, axis=1)
        hi = np.column_stack([_gauss_nodes(a, b), b])
        span = hi - lo
        pair = np.stack([lo, hi])
        # sigma~^2 may be subnormal next to an endpoint: inf takes the finest grading
        with np.errstate(over="ignore"):
            g = self._drift_over_var(pair, self.model.diffusion(pair), shift)
        g = np.max(np.abs(g), axis=0)
        rel0 = np.clip(1.0 / (np.fmax(g, 1.0) * np.abs(span)), 1e-13, 0.5)
        n_dbl = int(min(45, max(4, math.ceil(-math.log2(float(np.min(rel0)))))))
        ladder = np.minimum(rel0[..., None] * 2.0 ** np.arange(n_dbl + 1), 0.5)
        ladder = np.concatenate([np.zeros(ladder.shape[:-1] + (1,)), ladder], axis=-1)
        rel_edges = np.concatenate([ladder, 1.0 - ladder[..., ::-1]], axis=-1)
        sub_lo = lo[..., None] + span[..., None] * rel_edges[..., :-1]
        sub_hi = lo[..., None] + span[..., None] * rel_edges[..., 1:]
        e, log_sig, de = self._node_values(sub_lo.ravel(), sub_hi.ravel(), True, (),
                                           np.zeros(sub_lo.size, dtype=np.intp), np.array([shift]))
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

    def _stabilized_legs(self, legs, field, stop=math.inf, n_terms=1):
        """The sweep's other entry point, which every value and limit reads:
        rounds of ``_sweep_passes`` with 64, 128, ... base panels until, leg
        by leg, ``field`` agrees between consecutive rounds to max(quad_tol,
        1e-12) at every point up to the first at or above ``stop``; ``n_terms``
        series terms ride along.  A leg is a pass less its base panels,
        (shift, points); a round's passes, each open leg at each count, run
        in one batch, and the first two rounds (64 and 128 base panels) in
        one, as no leg settles before its second.

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
            keys = [(i, n) for i, o in enumerate(out) if o is None for n in counts]
            swept = self._sweep_passes([(*legs[i], n) for i, n in keys], field, stop, n_terms)
            for (i, n), (sweep, fit) in zip(keys, swept):
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
                        out[i] = sweep, ev
                prev[i] = xs, cur, fit, ok
            n_panels = 2 * counts[-1]
        return [o or NumericError(f"{_QUANTITY[field]} quadrature did not stabilize",
                                  x=float(xs[np.argmin(ok)]),
                                  last_log_value=float(before[np.argmin(ok)]),
                                  max_panels=self.max_panels)
                for o, (xs, before, _, ok) in zip(out, prev)]

    # -- public evaluations ----------------------------------------------------

    def _read(self, x, field, n_terms=1):
        # (_Sweep row as floats, sign of x - c) at an interior x for field, or
        # its NumericError raised; at x = c or no terms: E = 0, other logs -inf, +1
        x = float(self._check_interior(x))
        if x == self.c or n_terms == 0:
            return _Sweep(0.0, -math.inf, -math.inf, -math.inf, -math.inf), 1.0
        (out,) = self._stabilized_legs([(self._side_shift(x), [x])], field, n_terms=n_terms)
        if isinstance(out, NumericError):
            raise out
        return _Sweep(*(float(col[0]) for col in out[0])), (1.0 if x > self.c else -1.0)

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

        method 'auto' takes a built-in model's closed rule (exponent signs),
        which decides every end, and sweeps a custom model to a finite
        endpoint and samples it toward an infinite one.  method 'sample' is
        the explicit cross-check for any model: it evaluates along a
        geometric sequence approaching the boundary (x_k = boundary +-
        |c - boundary| 2^-k for finite endpoints, x_k = c -+ 2^k for
        infinite ones, k = 1..steps; ValueError if one is not a float inside
        the interval) and classifies the increment tail.  The result's
        ``method`` says which was used: 'closed', 'sweep' or 'sample'.

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
        _require(method in ("auto", "sample"), f"unknown method {method!r}")
        steps = check_count("steps", steps, 4)
        boundary = self.model.interval[0 if which == "left" else 1]
        closed = self._closed_limit(which, target) if method == "auto" else None
        if closed is not None:
            if closed.kind == "finite" and math.isfinite(boundary):
                swept = self._swept_limit(boundary, target)
                if swept.kind == "finite":
                    return replace(closed, value=swept.value,
                                   evidence={**closed.evidence, **swept.evidence})
            return closed
        if method == "auto" and math.isfinite(boundary):
            return self._swept_limit(boundary, target)
        return self._sampled_limit(which, target, steps)

    def _closed_limit(self, which, target):
        # a built-in model's closed rule for the limit at which under that side's
        # shift, with no value (boundary_limit sweeps a finite end's); else None
        if hasattr(self.model, "limit_rule"):
            shift = self.beta if which == "left" else self.gamma
            kind, ev = self.model.limit_rule(which, target, self._k0, self._ratio, shift)
            return LimitResult(kind, None, "closed", ev)
        return None

    def _swept_limit(self, boundary, target):
        # the limit by sweeps run to a finite endpoint, as boundary_limit says
        field = "log_v" if target == "v" else "log_p"
        (out,) = self._stabilized_legs([(self._side_shift(boundary), [boundary])], field)
        if isinstance(out, NumericError):
            return LimitResult("inconclusive", None, "sweep", out.details)
        sweep, ev = out
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
        (out,) = self._stabilized_legs([(self._side_shift(points[0]), points)], field, log_cap)
        if isinstance(out, NumericError):
            return LimitResult("inconclusive", None, "sample", out.details)
        sweep, effort = out
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
