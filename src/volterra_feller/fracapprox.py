"""Nonsingular stand-ins for the fractional kernel t**(alpha-1)/Gamma(alpha).

The singular fractional kernel sits outside the scope of the boundary tests,
which need K(0) finite.  Two approximation routes bring it back in; both
start from K_frac as the Laplace transform of the rate measure
mu(dx) = x**(-alpha)/(Gamma(alpha)Gamma(1-alpha)) dx.

* truncation: cut mu off at the rate T, so K(t) = int_0^T exp(-x t) mu(dx).
  K(0) is then finite and K increases pointwise to K_frac as T grows.
  Handled by ``TruncatedFractionalKernel`` in :mod:`.kernels`;
  ``TruncationScheme`` is the declarative wrapper used by
  ``fractional_condition_study`` and the CLI.

* quadrature: apply interval-wise Gauss rules to mu on a geometric ladder
  xi_0 = 0 < xi_1 < xi_1*r < ... < xi_1*r**(N-1).
  Each interval contributes q nodes/masses, and the result is a
  ``SumOfExponentialsKernel``.  The ``geometric_bb2`` weight variant keeps the
  fractional weight only on the first interval and uses the flat weight dx on
  the rest, which changes how K(0) and K'(0) scale with the ladder length.

Each scheme builds its own stand-in with ``kernel()``.

Gauss rules are built per interval in float64 from the weight's Jacobi matrix by
Golub-Welsch (Math. Comp. 23, 1969): in closed form for Gauss-Legendre (dx) and
Gauss-Jacobi (x**(-alpha) on [0, hi]); on [lo, hi] with lo > 0 by a Stieltjes
procedure on the weight discretised over geometric panels (Gautschi, Orthogonal
Polynomials: Computation and Approximation, 2004, ch. 2), whose moments are
checked against their closed forms first.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, check_count, check_real, check_reals
from .kernels import SumOfExponentialsKernel, TruncatedFractionalKernel

__all__ = [
    "STAND_INS",
    "TruncationScheme",
    "QuadratureScheme",
    "geometric_nodes",
    "stand_in_scheme",
    "truncation_kernel",
    "gaussian_quadrature_kernel",
    "approximation_error",
]

_WEIGHT_KINDS = ("fractional", "geometric_bb2")
# stand-in names: truncation, or Gauss quadrature under one of the weights
STAND_INS = ("truncation",) + _WEIGHT_KINDS
# x**(-alpha) on [lo, hi], lo > 0, in s = x/hi: 40 Legendre points on each
# panel of ratio <= 8 down to s = 1e-300 (beyond it, the moment check decides)
_PANEL_POINTS, _LOG_PANEL_RATIO, _LOG_S_FLOOR = 40, math.log(8.0), math.log(1e-300)


@dataclass(frozen=True)
class TruncationScheme:
    """Cut the fractional kernel's rate measure at T; see ``TruncatedFractionalKernel``."""

    alpha: float
    T: float

    def __post_init__(self):
        check_real("alpha", self.alpha, gt=0.0, lt=1.0)
        check_real("T", self.T, gt=0.0)

    def kernel(self):
        return TruncatedFractionalKernel(self.alpha, self.T)


@dataclass(frozen=True)
class QuadratureScheme:
    """Interval-wise Gauss discretization of the Laplace representation.

    Parameters
    ----------
    alpha : fractional index in (0, 1).
    nodes : increasing breakpoints xi_0 <= xi_1 <= ... of the rate axis,
        xi_0 >= 0.  Use :func:`geometric_nodes` for the standard ladder.
    q : Gauss nodes per interval, q >= 1.
    weight : "fractional" applies the measure x**(-alpha) dx / (Gamma(alpha)
        Gamma(1-alpha)) on every interval; "geometric_bb2" applies it on the
        first interval only and the flat measure dx on the others, and
        requires xi_0 = 0.
    """

    alpha: float
    nodes: tuple
    q: int = 1
    weight: str = "fractional"

    def __post_init__(self):
        check_real("alpha", self.alpha, gt=0.0, lt=1.0)
        pts = check_reals("nodes", self.nodes)
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints (one interval)")
        if pts[0] < 0.0:
            raise ValueError("breakpoints must be finite and nonnegative")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "q", check_count("q", self.q, 1))
        if self.weight not in _WEIGHT_KINDS:
            raise ValueError("weight must be one of %s" % (_WEIGHT_KINDS,))
        if self.weight == "geometric_bb2" and pts[0] != 0.0:
            raise ValueError("geometric_bb2 expects the ladder to start at 0")
        object.__setattr__(self, "nodes", pts)

    @property
    def n_intervals(self):
        return len(self.nodes) - 1

    def kernel(self):
        return gaussian_quadrature_kernel(self)


def geometric_nodes(n_intervals, ratio=6.4, xi1=1.0):
    """Breakpoints 0, xi1, xi1*ratio, ..., xi1*ratio**(n_intervals-1).

    The first interval [0, xi1] absorbs the integrable singularity of the
    fractional weight at 0; the remaining ones grow geometrically so the far
    rates (short-time behaviour of the kernel) are covered with few intervals.
    """
    n_intervals = check_count("n_intervals", n_intervals, 1)
    check_real("ratio", ratio, gt=1.0)
    check_real("xi1", xi1, gt=0.0)
    pts = [0.0]
    for n in range(n_intervals):
        pts.append(xi1 * ratio ** n)
    return tuple(pts)


def stand_in_scheme(name, alpha, size, q=1, ratio=6.4, xi1=1.0):
    """The stand-in scheme called ``name`` (one of ``STAND_INS``).

    ``truncation`` cuts the rate measure at T = size; ``fractional`` and
    ``geometric_bb2`` put q Gauss nodes under that weight on each interval of
    ``geometric_nodes(size, ratio, xi1)``.
    """
    if name == "truncation":
        return TruncationScheme(alpha, size)
    return QuadratureScheme(alpha, geometric_nodes(size, ratio=ratio, xi1=xi1), q=q, weight=name)


def truncation_kernel(alpha, T=None):
    """Kernel for ``TruncationScheme(alpha, T)``, or for a scheme given alone."""
    if isinstance(alpha, TruncationScheme):
        if T is not None:
            raise ValueError("T must not be given with a TruncationScheme, which carries its own")
        return alpha.kernel()
    if T is None:
        raise ValueError("T is required when alpha is given as a number")
    return TruncatedFractionalKernel(alpha, T)


def _golub_welsch(diag, off, mu0):
    # Gauss rule of a Jacobi matrix: its eigenvalues, mu0 * squared first eigenvector entries
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, mu0 * vecs[0] ** 2


def _jacobi_rule(n, b):
    """n-point Gauss rule on [0, 1] for the weight u**b, b > -1 (shifted Jacobi (0, b))."""
    k = np.arange(1.0, n)
    s = 2.0 * k + b
    diag = np.concatenate(([(1.0 + b) / (2.0 + b)], (1.0 + b * b / (s * (s + 2.0))) / 2.0))
    # s*s - 1 as (s - 1)(s + 1), with s - 1 formed from b: it is 1 - alpha at k = 1
    off = k * (k + b) / (s * np.sqrt((2.0 * k - 1.0 + b) * (s + 1.0)))
    return _golub_welsch(diag, off, 1.0 / (1.0 + b))


_PANEL_RULE = _jacobi_rule(_PANEL_POINTS, 0.0)  # shared between calls: never written to


def _discretised_rule(alpha, lo, hi, q):
    """q-point Gauss rule for s**(-alpha) ds on [lo/hi, 1], 0 < lo < hi: nodes in
    u = (x - lo)/(hi - lo), masses in s = x/hi; NumericError if the discretised
    weight misses its moments mu_0 .. mu_(2q-1) by more than 1e-12 relative."""
    d = (hi - lo) / hi  # 1 - lo/hi without cancellation
    log_rho = (math.log1p(-d) if d < 0.5 else math.log(lo / hi) if lo / hi > 1e-300
               else math.log(lo) - math.log(hi))
    rho, bottom = math.exp(log_rho), max(log_rho, _LOG_S_FLOOR)
    edges = np.exp(np.linspace(bottom, 0.0, math.ceil(-bottom / _LOG_PANEL_RATIO) + 1))
    edges = (edges - rho) / d  # in u, with exact outer ends: rounding there moves a narrow range
    edges[0], edges[-1] = (edges[0] if bottom > log_rho else 0.0), 1.0
    t, omega = _PANEL_RULE
    u = (edges[:-1, None] + np.diff(edges)[:, None] * t).ravel()
    s = rho + d * u
    w = (np.diff(edges)[:, None] * omega).ravel() * s ** -alpha
    p = np.arange(2 * q) + 1.0 - alpha
    miss = np.abs(d * (s ** np.arange(2 * q)[:, None] @ w) * p / -np.expm1(p * log_rho) - 1.0)
    if not np.all(miss <= 1e-12):
        raise NumericError("discretised weight misses its closed-form moments",
                           interval=(lo, hi), q=q, worst=float(np.max(miss)))
    # Stieltjes as Lanczos on the vectors sqrt(w) p_k(u), by classical Gram-Schmidt run twice
    basis, off = np.sqrt(w / w.sum())[None, :], []
    for _ in range(q - 1):
        z = u * basis[-1]
        for _ in range(2):
            z -= basis.T @ (basis @ z)
        off.append(np.linalg.norm(z))
        basis = np.vstack((basis, z / off[-1]))
    nodes, masses = _golub_welsch(basis ** 2 @ u, off, w.sum())
    return nodes, d * masses


def gaussian_quadrature_kernel(scheme):
    """Sum-of-exponentials kernel carrying the per-interval Gauss rules.

    Raises ``NumericError`` if any mass is zero or subnormal, or a node escapes
    its interval, both of which signal a rule that float64 does not represent.
    """
    if not isinstance(scheme, QuadratureScheme):
        raise TypeError("gaussian_quadrature_kernel expects a QuadratureScheme")
    alpha, q = scheme.alpha, scheme.q
    # w(x) = x**(-alpha) / (Gamma(alpha) Gamma(1-alpha)) = norm * x**(-alpha)
    norm = math.sin(math.pi * alpha) / math.pi
    all_rates = []
    all_weights = []
    for n in range(scheme.n_intervals):
        lo, hi = scheme.nodes[n], scheme.nodes[n + 1]
        flat = scheme.weight == "geometric_bb2" and n > 0
        unit, masses = (_jacobi_rule(q, 0.0) if flat else _jacobi_rule(q, -alpha) if lo == 0.0
                        else _discretised_rule(alpha, lo, hi, q))
        masses = masses * ((hi - lo) if flat else norm * hi ** (1.0 - alpha))
        slack = 1e-12 * (hi - lo)
        for x, m in zip((lo + (hi - lo) * unit).tolist(), masses.tolist()):
            if not m >= np.finfo(float).tiny:  # a subnormal mass has lost its digits
                raise NumericError(
                    "Gauss mass is not a positive normal float",
                    interval=(lo, hi), node=x, mass=m,
                )
            if x < lo - slack or x > hi + slack:
                raise NumericError(
                    "Gauss node escaped its interval; reduce q",
                    interval=(lo, hi), node=x,
                )
            all_rates.append(min(max(x, lo), hi))
            all_weights.append(m)
    return SumOfExponentialsKernel(weights=tuple(all_weights), rates=tuple(all_rates))


def approximation_error(scheme, t_grid):
    """Pointwise comparison against t**(alpha-1)/Gamma(alpha) on a lag grid.

    Returns one row per lag with the approximate value, the exact fractional
    kernel, and absolute/relative errors.  Lags must be strictly positive; the
    fractional kernel has no value at 0.
    """
    if not hasattr(scheme, "kernel"):
        raise TypeError("scheme must be a TruncationScheme or QuadratureScheme")
    return _error_rows(scheme.kernel(), scheme.alpha, t_grid)


def _error_rows(kernel, alpha, t_grid):
    # approximation_error for a stand-in kernel already built
    t = check_reals("t_grid", t_grid)
    if not t:
        raise ValueError("t_grid must be nonempty")
    if min(t) <= 0.0:
        raise ValueError("lags must be finite and strictly positive")
    from scipy.special import gamma  # imported on use: scipy.special takes 0.25 s to load

    galpha = gamma(alpha)
    rows = []
    for ti in t:
        approx = kernel.eval(ti)
        exact = ti ** (alpha - 1.0) / galpha
        err = approx - exact
        rows.append({
            "t": ti,
            "approx": float(approx),
            "exact": float(exact),
            "abs_error": float(abs(err)),
            "rel_error": float(abs(err) / abs(exact)),
        })
    return rows
