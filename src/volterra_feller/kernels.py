"""Convolution kernels with finite value and slope at zero.

Every kernel K here is continuously differentiable on (0, infinity) with a
finite right limit K(0) and right derivative K'(0).  Those two scalars are
what the boundary tests consume; the full time profile is only needed by the
resolvent solver and the simulator.

Built-in variants
-----------------
``ConstantKernel``
    K(t) = level.  The classical (memoryless) case.
``SumOfExponentialsKernel``
    K(t) = sum_n m_n exp(-x_n t) with m_n > 0, x_n >= 0.  Completely
    monotone; the image of the quadrature approximations in ``fracapprox``.
``TruncatedFractionalKernel``
    K(t) = int_0^T exp(-x t) x^(-alpha) dx / (Gamma(alpha) Gamma(1-alpha)),
    the fractional kernel t^(alpha-1)/Gamma(alpha) with its Laplace measure
    cut off at T.  Pointwise values come from the closed form
    K(t) = t^(alpha-1) P(1-alpha, T t) / Gamma(alpha) in the regularized
    lower incomplete gamma function P (DLMF 8.2).

User-supplied kernels do not get a spec variant: they enter through
``UserKernel`` as plain callables with asserted K(0), K'(0) and an asserted
complete-monotonicity flag, and the caller owns those assertions.

Callers dispatch on what a kernel can do, not on its type: ``exp_form()``
returns the (weights, rates) of a sum-of-exponentials form, rate 0 for the
constant kernel, or None when the kernel has none.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import check_real, check_reals

__all__ = [
    "ConstantKernel",
    "SumOfExponentialsKernel",
    "TruncatedFractionalKernel",
    "UserKernel",
    "KERNEL_KINDS",
    "kernel_from_dict",
    "kernel_to_dict",
]


def _at_lags(t, values):
    # values(arr) for the lags t as a float array (a float if t is 0-d), if t is
    # a number or array of integer or float dtype or of Python ints, bools not
    # included, with finite nonnegative entries; else a ValueError naming t
    try:
        arr = np.asarray(t)
        if arr.dtype == object and all(type(v) is int for v in arr.flat):
            arr = arr.astype(float)
    except (ValueError, OverflowError):  # a ragged nesting, or an int past float
        arr = np.asarray(None)  # object dtype, refused below
    if arr.dtype.kind not in "iuf" or not np.all((arr >= 0) & (arr < np.inf)):
        raise ValueError(f"kernel lag t must be finite and nonnegative, got {t!r}")
    out = values(np.asarray(arr, dtype=float))
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class ConstantKernel:
    """K(t) = level with level > 0."""

    level: float

    def __post_init__(self):
        check_real("level", self.level, gt=0.0)

    @property
    def completely_monotone(self) -> bool:
        return True

    def eval(self, t):
        return _at_lags(t, lambda arr: np.full_like(arr, self.level))

    def eval_deriv(self, t):
        return _at_lags(t, np.zeros_like)

    def k0_kprime0(self):
        return self.level, 0.0

    def exp_form(self):
        return np.array([self.level]), np.zeros(1)


@dataclass(frozen=True)
class SumOfExponentialsKernel:
    """K(t) = sum_n weights[n] * exp(-rates[n] * t).

    Parameters
    ----------
    weights : positive reals (kernel stays completely monotone)
    rates : nonnegative reals, one per weight
    """

    weights: tuple
    rates: tuple

    def __post_init__(self):
        w = check_reals("weights", self.weights)
        r = check_reals("rates", self.rates)
        if len(w) != len(r) or not w:
            raise ValueError("weights and rates must be equal-length, nonempty")
        if any(v <= 0.0 for v in w):
            raise ValueError("all weights must be positive finite reals")
        if any(v < 0.0 for v in r):
            raise ValueError("all rates must be nonnegative finite reals")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "rates", r)

    @property
    def completely_monotone(self) -> bool:
        return True

    def eval(self, t):
        w, r = self.exp_form()
        return _at_lags(t, lambda arr: np.exp(-np.multiply.outer(arr, r)) @ w)

    def eval_deriv(self, t):
        w, r = self.exp_form()
        return _at_lags(t, lambda arr: -(np.exp(-np.multiply.outer(arr, r)) @ (w * r)))

    def k0_kprime0(self):
        w, r = self.exp_form()
        return float(w.sum()), float(-(w * r).sum())

    def exp_form(self):
        return np.asarray(self.weights), np.asarray(self.rates)


@dataclass(frozen=True)
class TruncatedFractionalKernel:
    """Fractional kernel with Laplace measure truncated at T.

    K(t) = int_0^T exp(-x t) mu(dx),  mu(dx) = x^(-alpha) dx / (Gamma(alpha)
    Gamma(1-alpha)), for alpha in (0, 1) and T > 0.  As T grows, K increases
    pointwise toward the fractional kernel t^(alpha-1)/Gamma(alpha).

    Substituting u = x t turns both integrals into incomplete gamma
    functions, so for t > 0 (DLMF 8.2, P the regularized lower one)

        K(t)  = t^(alpha-1) P(1-alpha, T t) / Gamma(alpha)
        K'(t) = -(1-alpha) t^(alpha-2) P(2-alpha, T t) / Gamma(alpha)

    and at t = 0 the closed forms used by the tests:

        K(0)  = T^(1-alpha) / (Gamma(alpha) Gamma(2-alpha))
        K'(0) = -T^(2-alpha) / ((2-alpha) Gamma(alpha) Gamma(1-alpha))
    """

    alpha: float
    T: float

    def __post_init__(self):
        check_real("alpha", self.alpha, gt=0.0, lt=1.0)
        check_real("T", self.T, gt=0.0)
        try:
            self.k0_kprime0()
        except OverflowError:
            raise ValueError(f"T = {self.T} is too large: K'(0) overflows") from None

    @property
    def completely_monotone(self) -> bool:
        return True

    def _closed_form(self, arr, power, factor, at_zero):
        # factor t^power P(-power, T t) / Gamma(alpha), with t^power split as
        # T^-power (T t)^power: x^power P(-power, x) <= 1, so nothing
        # overflows while K'(0) is finite.  K and K' move from their t = 0
        # values by a relative amount below T t, so at_zero is exact to
        # rounding for T t < 1e-16, where x^power alone may overflow.
        from scipy.special import gamma, gammainc  # imported on use: it takes 0.25 s to load

        x = self.T * arr
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = factor * self.T**-power * (x**power * gammainc(-power, x))
        return np.where(x < 1e-16, at_zero, out / gamma(self.alpha))

    def eval(self, t):
        a, k0 = self.alpha, self.k0_kprime0()[0]
        return _at_lags(t, lambda arr: self._closed_form(arr, a - 1.0, 1.0, k0))

    def eval_deriv(self, t):
        a, kp0 = self.alpha, self.k0_kprime0()[1]
        return _at_lags(t, lambda arr: self._closed_form(arr, a - 2.0, -(1.0 - a), kp0))

    def k0_kprime0(self):
        from scipy.special import gamma

        a, T = self.alpha, self.T
        k0 = T ** (1.0 - a) / (gamma(a) * gamma(2.0 - a))
        kp0 = -(T ** (2.0 - a)) / ((2.0 - a) * gamma(a) * gamma(1.0 - a))
        # plain floats: numpy scalars would reach CSV echoes with another repr
        return float(k0), float(kp0)

    def exp_form(self):
        return None


class UserKernel:
    """Caller-supplied kernel entering through the library API only.

    The caller asserts K(0), K'(0) and (optionally) complete monotonicity;
    nothing is verified beyond basic sanity.  ``deriv`` may be omitted, in
    which case K' is approximated by central differences where needed.
    """

    def __init__(self, func, k0, kprime0, deriv=None, completely_monotone=False):
        if not callable(func):
            raise ValueError("func must be callable")
        self._func = func
        self._deriv = deriv
        self._k0 = float(check_real("k0", k0, gt=0.0))
        self._kprime0 = float(check_real("kprime0", kprime0))
        self._cm = bool(completely_monotone)

    @property
    def completely_monotone(self) -> bool:
        return self._cm

    def eval(self, t):
        return _at_lags(t, lambda arr: np.asarray(self._func(arr), dtype=float))

    def eval_deriv(self, t):
        return _at_lags(t, self._deriv_values)

    def _deriv_values(self, arr):
        if self._deriv is not None:
            return np.asarray(self._deriv(arr), dtype=float)
        h = 1e-6 * max(1.0, float(np.max(arr)) if arr.size else 1.0)
        lo = np.maximum(arr - h, 0.0)
        hi = arr + h
        return (np.asarray(self._func(hi), dtype=float) - np.asarray(self._func(lo), dtype=float)) / (hi - lo)

    def k0_kprime0(self):
        return self._k0, self._kprime0

    def exp_form(self):
        return None


KERNEL_KINDS = {
    "constant": ConstantKernel,
    "sumexp": SumOfExponentialsKernel,
    "truncfrac": TruncatedFractionalKernel,
}
_KIND_OF = {cls: kind for kind, cls in KERNEL_KINDS.items()}


def kernel_to_dict(kernel) -> dict:
    """Tagged plain-data record for configs and reports."""
    kind = _KIND_OF.get(type(kernel))
    if kind is None:
        raise ValueError(f"kernel of type {type(kernel).__name__} has no serialized form")
    record = {"kind": kind}
    for f in fields(kernel):
        value = getattr(kernel, f.name)
        record[f.name] = list(value) if type(value) is tuple else value
    return record


def kernel_from_dict(record: dict):
    """Inverse of :func:`kernel_to_dict`.  Unknown tags or fields are errors."""
    if "kind" not in record:
        raise ValueError("kernel record is missing the 'kind' tag")
    kind = record["kind"]
    cls = KERNEL_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown kernel kind {kind!r}")
    given = {k: v for k, v in record.items() if k != "kind"}
    allowed = {f.name for f in fields(cls)}
    unknown = set(given) - allowed
    if unknown:
        raise ValueError(f"unknown kernel field(s) {sorted(unknown)} for kind {kind!r}")
    missing = allowed - set(given)
    if missing:
        raise ValueError(f"missing kernel field(s) {sorted(missing)} for kind {kind!r}")
    return cls(**given)
