import dataclasses
import math

import numpy as np
import pytest

from volterra_feller import (
    ConstantKernel,
    SumOfExponentialsKernel,
    TruncatedFractionalKernel,
    UserKernel,
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


def test_two_exponential_density_matches_exact_resolvent_at_first_order():
    # K = w1 e^(-r1 t) + w2 e^(-r2 t) has 1/(s K^(s)) = K(0)^-1 + A/s + B/(s + lam),
    # so rho(t) = A + B e^(-lam t) with m = w1 r2 + w2 r1 and lam = m / K(0)
    w1, w2, r1, r2 = 0.5, 0.5, 1.0, 2.0
    k0 = w1 + w2
    m = w1 * r2 + w2 * r1
    lam = m / k0
    a = r1 * r2 / m
    b = r1 + r2 - m / k0 - k0 * r1 * r2 / m
    kernel = SumOfExponentialsKernel([w1, w2], [r1, r2])
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        grid = solve_resolvent(kernel, dt=dt, horizon=1.0)
        exact = a + b * np.exp(-lam * grid.times)
        errors.append(float(np.max(np.abs(grid.density - exact))))
        assert errors[-1] <= 1.05 * dt
    assert errors[1] <= 0.505 * errors[0]
    assert errors[2] <= 0.505 * errors[1]


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


def test_solver_numeric_errors_carry_their_diagnostics():
    # K(0) asserted as 2 for e^(-t): K * L = 1 fails by far more than 10 dt
    wrong_k0 = UserKernel(lambda t: np.exp(-t), k0=2.0, kprime0=-1.0)
    with pytest.raises(NumericError, match="residual above tolerance") as exc:
        solve_resolvent(wrong_k0, dt=0.01, horizon=1.0)
    assert exc.value.details["target"] == pytest.approx(0.1)
    assert exc.value.details["achieved"] == pytest.approx(0.2475, abs=1e-3)
    # K vanishes after 0, so the triangular solve has nothing to divide by
    spike = UserKernel(lambda t: np.where(np.asarray(t) > 0.0, 0.0, 1.0), k0=1.0, kprime0=0.0)
    with pytest.raises(NumericError, match="K\\(dt\\) vanishes") as exc:
        solve_resolvent(spike, dt=0.01, horizon=1.0)
    assert exc.value.details["k_dt"] == 0.0
