import dataclasses
import math

import numpy as np
import pytest

from volterra_feller import (
    ConstantKernel,
    SumOfExponentialsKernel,
    TruncatedFractionalKernel,
    check_hypotheses,
    solve_resolvent,
)
from volterra_feller.errors import NumericError


def test_constant_kernel_resolvent_is_pure_atom():
    # K = c has L(dt) = (1/c) delta_0: density identically zero
    grid = solve_resolvent(ConstantKernel(2.0), dt=1e-3, horizon=1.0)
    assert grid.atom == pytest.approx(0.5, rel=1e-15)
    assert np.max(np.abs(grid.density)) <= 1e-12
    assert grid.kl_residual <= 1e-12


def test_single_exponential_has_constant_density():
    # K = e^{-t}: L = delta_0 + 1 dt, so rho == 1 up to the O(dt) scheme bias
    grid = solve_resolvent(SumOfExponentialsKernel([1.0], [1.0]), dt=1e-3, horizon=2.0)
    assert grid.atom == pytest.approx(1.0, rel=1e-14)
    assert np.max(np.abs(grid.density - 1.0)) <= 1e-3
    assert np.ptp(grid.density) <= 1e-10  # constant in t
    assert grid.kl_residual <= 1e-2
    assert np.max(np.abs(grid.kprime_conv_L + 1.0)) <= 1e-2


def test_residual_contracts_when_dt_halves():
    kernel = SumOfExponentialsKernel([0.6, 0.4], [0.5, 2.0])
    coarse = solve_resolvent(kernel, dt=2e-3, horizon=1.0)
    fine = solve_resolvent(kernel, dt=1e-3, horizon=1.0)
    assert fine.kl_residual <= 0.6 * coarse.kl_residual


def test_sumexp_and_generic_solvers_agree():
    # the sum-of-exponentials recursion against the generic triangular solve
    kernel = SumOfExponentialsKernel([0.5, 0.5], [1.0, 3.0])
    fast = solve_resolvent(kernel, dt=5e-3, horizon=1.0)

    class Wrapped:
        completely_monotone = True

        def eval(self, t):
            return kernel.eval(t)

        def eval_deriv(self, t):
            return kernel.eval_deriv(t)

        def k0_kprime0(self):
            return kernel.k0_kprime0()

    slow = solve_resolvent(Wrapped(), dt=5e-3, horizon=1.0)
    np.testing.assert_allclose(fast.density, slow.density, rtol=1e-9, atol=1e-12)


def test_truncfrac_hypotheses_pass():
    grid = solve_resolvent(TruncatedFractionalKernel(0.5, 10.0), dt=0.01, horizon=1.0)
    report = check_hypotheses(grid)
    assert report.tol == pytest.approx(1.0)  # 100 * dt default
    assert report.density_nonnegative
    assert report.kprime_conv_nonpositive
    assert report.kprime_conv_nondecreasing
    assert report.passed


def test_hypothesis_report_flags_negative_density():
    grid = solve_resolvent(SumOfExponentialsKernel([1.0], [1.0]), dt=1e-2, horizon=0.5)
    # forged density violating nonnegativity beyond tolerance
    bad = type(grid)(
        kernel=grid.kernel,
        dt=grid.dt,
        horizon=grid.horizon,
        atom=grid.atom,
        times=grid.times,
        density=grid.density - 5.0,
        kprime_conv_L=grid.kprime_conv_L,
        kl_residual=grid.kl_residual,
    )
    report = check_hypotheses(bad, tol=0.1)
    assert not report.density_nonnegative
    assert not report.passed
    assert report.density_min == pytest.approx(-4.0, abs=0.1)


def test_infinite_or_nan_tol_is_rejected():
    # tol = inf passed a forged density of -4
    grid = solve_resolvent(SumOfExponentialsKernel([1.0], [1.0]), dt=1e-2, horizon=0.5)
    bad = dataclasses.replace(grid, density=grid.density - 5.0)
    assert not check_hypotheses(bad, tol=0.1).passed
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^tol must be finite"):
            check_hypotheses(bad, tol=tol)


def test_solver_input_validation():
    kernel = ConstantKernel(1.0)
    with pytest.raises(ValueError):
        solve_resolvent(kernel, dt=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        solve_resolvent(kernel, dt=0.1, horizon=0.05)
    with pytest.raises(NumericError):
        solve_resolvent(ConstantKernel(1e-300), dt=0.1, horizon=1.0)
