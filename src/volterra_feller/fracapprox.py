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

Gauss rules are built from power moments of the weight on each interval.  The
moments have closed forms, but the Hankel reduction is ill conditioned in
float64 well before q = 12, so the linear algebra runs in mpmath at 60 digits
and only the final nodes and masses are rounded back to float.
"""

from dataclasses import dataclass

from mpmath import mp
from mpmath.matrices.eigen_symmetric import tridiag_eigen

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
_MAX_NODES_PER_INTERVAL = 12


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
    q : Gauss nodes per interval, 1 <= q <= 12.
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
        object.__setattr__(self, "q", check_count("q", self.q, 1, _MAX_NODES_PER_INTERVAL))
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
    """Kernel for ``TruncationScheme(alpha, T)``; accepts the scheme itself too."""
    if isinstance(alpha, TruncationScheme):
        return alpha.kernel()
    if T is None:
        raise ValueError("T is required when alpha is given as a number")
    return TruncatedFractionalKernel(alpha, T)


def _interval_moments(alpha, lo, hi, count, fractional):
    """Power moments int_lo^hi x**k w(x) dx for k = 0..count-1, as mpf."""
    lo = mp.mpf(lo)
    hi = mp.mpf(hi)
    out = []
    if fractional:
        # w(x) = x**(-alpha) / (Gamma(alpha) Gamma(1-alpha)); the product of
        # gammas is pi / sin(pi alpha).
        norm = mp.sin(mp.pi * mp.mpf(alpha)) / mp.pi
        for k in range(count):
            p = k + 1 - mp.mpf(alpha)
            out.append(norm * (hi ** p - lo ** p) / p)
    else:
        for k in range(count):
            out.append((hi ** (k + 1) - lo ** (k + 1)) / (k + 1))
    return out


def _gauss_rule(mus, lo, hi):
    """q-point Gauss rule from the moments mu_0..mu_2q of a weight on [lo, hi].

    Classical Hankel route: Cholesky of the moment matrix gives the three-term
    recurrence, whose symmetric tridiagonal Jacobi matrix is diagonalized by
    the implicit QL method (Golub-Welsch).  Nodes are the eigenvalues, masses
    mu_0 times the squared first eigenvector entries, the only ones formed.
    """
    q = (len(mus) - 1) // 2
    H = mp.matrix(q + 1, q + 1)
    for i in range(q + 1):
        for j in range(q + 1):
            H[i, j] = mus[i + j]
    try:
        L = mp.cholesky(H)
    except Exception as exc:
        raise NumericError(
            "moment matrix is numerically singular; reduce q or split the interval",
            interval=(float(lo), float(hi)),
            q=q,
        ) from exc
    # recurrence coefficients a_j (diagonal) and b_j (offdiagonal) from L
    a = []
    b = []
    for j in range(q):
        prev = L[j, j - 1] / L[j - 1, j - 1] if j > 0 else mp.mpf(0)
        a.append(L[j + 1, j] / L[j, j] - prev)
        if j > 0:
            b.append(L[j, j] / L[j - 1, j - 1])
    # tridiag_eigen overwrites a with the eigenvalues, in ascending order,
    # and first with the first row of the eigenvector matrix; it takes the
    # off-diagonal padded by one scratch entry
    first = mp.matrix(1, q)
    first[0, 0] = 1
    tridiag_eigen(mp, a, b + [mp.mpf(0)], first)
    return [float(x) for x in a], [float(mus[0] * first[0, i] ** 2) for i in range(q)]


def gaussian_quadrature_kernel(scheme):
    """Sum-of-exponentials kernel carrying the per-interval Gauss rules.

    Raises ``NumericError`` if any mass fails to be strictly positive or a
    node escapes its interval, both of which signal a degenerate moment
    problem rather than a representable kernel.
    """
    if not isinstance(scheme, QuadratureScheme):
        raise TypeError("gaussian_quadrature_kernel expects a QuadratureScheme")
    all_rates = []
    all_weights = []
    with mp.workdps(60):
        for n in range(scheme.n_intervals):
            lo, hi = scheme.nodes[n], scheme.nodes[n + 1]
            fractional = scheme.weight == "fractional" or n == 0
            mus = _interval_moments(scheme.alpha, lo, hi, 2 * scheme.q + 1, fractional)
            nodes, masses = _gauss_rule(mus, lo, hi)
            slack = 1e-12 * (hi - lo)
            for x, m in zip(nodes, masses):
                if not m > 0.0:
                    raise NumericError(
                        "Gauss mass is not positive; reduce q",
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
