"""Resolvent of the first kind for nonsingular kernels.

For a kernel K with K(0) > 0 the resolvent of the first kind is the measure
L with K * L = 1.  When K is completely monotone and nonincreasing, L splits
into a point mass at zero plus a density,

    L(dt) = K(0)^(-1) delta_0(dt) + rho(t) dt,

and the function (K' * L) is what the boundary tests' standing hypotheses
constrain: it must be nonpositive and nondecreasing.  This module discretizes
the convolution identity with the atom handled exactly and the density part
by the left-rectangle rule, solves the resulting lower-triangular Toeplitz
system by one forward substitution for every kernel, and checks the
hypotheses on the grid.  Kernels with a sum-of-exponentials form are
completely monotone, so the hypotheses hold for them by construction and
verdicts never need the check there; it serves the other kernels.

The solve drives the left-rectangle discretization to machine accuracy, so
the reported residual is measured with an independent (trapezoidal)
re-discretization of K * L; it decays at first order in dt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, check_real

__all__ = ["ResolventGrid", "HypothesisReport", "solve_resolvent", "check_hypotheses"]


@dataclass(frozen=True)
class ResolventGrid:
    """Discretized resolvent on a uniform grid t_i = i * dt, i < n.

    Attributes
    ----------
    atom : point mass of L at zero, exactly 1 / K(0)
    times : grid points carrying the density samples
    density : rho(t_i)
    kprime_conv_L : (K' * L)(t_i): the atom's K'(t_i) / K(0) plus the
        convolution of K' with the density under the trapezoidal
        re-discretization (the atom's term alone at t_0)
    kl_residual : max_i |(K * L)(t_i) - 1| under trapezoidal re-discretization
    """

    kernel: object
    dt: float
    horizon: float
    atom: float
    times: np.ndarray = field(repr=False)
    density: np.ndarray = field(repr=False)
    kprime_conv_L: np.ndarray = field(repr=False)
    kl_residual: float


@dataclass(frozen=True)
class HypothesisReport:
    """Grid check of the standing hypotheses on (rho, K' * L)."""

    tol: float
    density_nonnegative: bool
    density_min: float
    kprime_conv_nonpositive: bool
    kprime_conv_max: float
    kprime_conv_nondecreasing: bool
    kprime_conv_min_increment: float

    @property
    def passed(self) -> bool:
        return (
            self.density_nonnegative
            and self.kprime_conv_nonpositive
            and self.kprime_conv_nondecreasing
        )


def _solve_density_generic(k_grid, atom, dt, n):
    # O(n^2) forward substitution on the lower-triangular Toeplitz system
    rho = np.empty(n)
    k_rev = k_grid[::-1]
    for i in range(1, n + 1):
        acc = float(np.dot(k_rev[-i - 1 : -2], rho[: i - 1])) if i > 1 else 0.0
        rho[i - 1] = (1.0 - k_grid[i] * atom - acc * dt) / (dt * k_grid[1])
    return rho


def solve_resolvent(kernel, dt: float, horizon: float) -> ResolventGrid:
    """Solve K * L = 1 on a uniform grid.

    Raises
    ------
    ValueError
        dt or horizon nonpositive, or horizon < 2 dt.
    NumericError
        |K(0)| or |K(dt)| too small to divide by, or the verification
        residual exceeding 10 * dt.
    """
    check_real("dt", dt, gt=0.0)
    check_real("horizon", horizon, gt=0.0)
    n = int(round(horizon / dt))
    if n < 2:
        raise ValueError("horizon must cover at least two steps")

    k0, _ = kernel.k0_kprime0()
    if abs(k0) < 1e-12:
        raise NumericError("triangular solve ill-conditioned: K(0) is numerically zero", k0=k0)
    atom = 1.0 / k0

    times_full = dt * np.arange(n + 1)
    k_grid = np.asarray(kernel.eval(times_full), dtype=float)
    if abs(k_grid[1]) * dt < 1e-300:
        raise NumericError("triangular solve ill-conditioned: K(dt) vanishes", k_dt=k_grid[1])

    rho = _solve_density_generic(k_grid, atom, dt, n)

    # both convolutions are re-discretized with the trapezoid rule, which the
    # solve itself does not use; otherwise residuals would only reflect the
    # solve's own convention and sit at rounding level
    i_idx = np.arange(1, n)

    def _trap_conv(g_grid):
        full = np.convolve(g_grid[:n], rho)[:n]  # includes the j = i term
        return dt * (full[i_idx] - 0.5 * (g_grid[i_idx] * rho[0] + g_grid[0] * rho[i_idx]))

    kp_grid = np.asarray(kernel.eval_deriv(times_full), dtype=float)
    kcl = np.empty(n)
    kcl[0] = kp_grid[0] * atom
    kcl[1:] = kp_grid[i_idx] * atom + _trap_conv(kp_grid)

    residual = float(np.max(np.abs(k_grid[i_idx] * atom + _trap_conv(k_grid) - 1.0)))
    if residual > 10.0 * dt:
        raise NumericError(
            "resolvent residual above tolerance", achieved=residual, target=10.0 * dt
        )

    return ResolventGrid(
        kernel=kernel,
        dt=dt,
        horizon=horizon,
        atom=atom,
        times=times_full[:n],
        density=rho,
        kprime_conv_L=kcl,
        kl_residual=residual,
    )


def check_hypotheses(grid: ResolventGrid, tol: float | None = None) -> HypothesisReport:
    """Check rho >= 0, K' * L <= 0 and K' * L nondecreasing, within tol.

    tol defaults to 100 * dt, matching the first-order accuracy of the
    discretization.
    """
    tol = check_real("tol", 100.0 * grid.dt if tol is None else tol, gt=0.0)
    density_min = float(np.min(grid.density))
    kcl_max = float(np.max(grid.kprime_conv_L))
    increments = np.diff(grid.kprime_conv_L)
    min_inc = float(np.min(increments)) if increments.size else 0.0
    return HypothesisReport(
        tol=tol,
        density_nonnegative=density_min >= -tol,
        density_min=density_min,
        kprime_conv_nonpositive=kcl_max <= tol,
        kprime_conv_max=kcl_max,
        kprime_conv_nondecreasing=min_inc >= -tol,
        kprime_conv_min_increment=min_inc,
    )
