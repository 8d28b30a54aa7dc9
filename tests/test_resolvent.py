import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_feller import (
    ConstantKernel,
    SumOfExponentialsKernel,
    TruncatedFractionalKernel,
    UserKernel,
    check_hypotheses,
    solve_resolvent,
)
from volterra_feller import resolvent
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


def test_horizon_is_checked_in_steps_of_dt_rounded():
    # round(horizon / dt) steps: 1.6 dt rounds up to two steps, 1.4 dt down to one
    kernel = SumOfExponentialsKernel([1.0], [1.0])
    grid = solve_resolvent(kernel, dt=0.01, horizon=0.016)
    assert len(grid.times) == len(grid.density) == 2
    with pytest.raises(ValueError, match="^horizon must cover at least two steps"):
        solve_resolvent(kernel, dt=0.01, horizon=0.014)


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


def _forward_substitution(k_grid, atom, dt, n):
    # the O(n^2) loop the FFT division replaced, kept as its oracle: one dot
    # per grid step, in k_grid's dtype (long double for a long-double grid)
    rho = np.empty(n, dtype=k_grid.dtype)
    k_rev = k_grid[::-1]
    for i in range(1, n + 1):
        acc = np.dot(k_rev[-i - 1 : -2], rho[: i - 1]) if i > 1 else 0.0
        rho[i - 1] = (1.0 - k_grid[i] * atom - acc * dt) / (dt * k_grid[1])
    return rho


def _sequential_solve(kernel, dt, n):
    # density and K' * L as the loop and np.convolve gave them
    times = dt * np.arange(n + 1)
    atom = 1.0 / kernel.k0_kprime0()[0]
    rho = _forward_substitution(kernel.eval(times), atom, dt, n)
    kp = kernel.eval_deriv(times)
    i = np.arange(1, n)
    full = np.convolve(kp[:n], rho)[:n]
    kcl = np.empty(n)
    kcl[0] = kp[0] * atom
    kcl[1:] = kp[i] * atom + dt * (full[i] - 0.5 * (kp[i] * rho[0] + kp[0] * rho[i]))
    return rho, kcl


def _normwise(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


_SIZES = st.one_of(
    st.integers(2, 3000),
    st.sampled_from([2, 3, 4, 5, 7, 8, 9, 255, 256, 257, 1023, 1024, 1025, 2047, 2048, 2049]),
)
_TERMS = st.lists(st.tuples(st.floats(0.05, 5.0), st.floats(0.01, 20.0)), min_size=1, max_size=4)


@settings(max_examples=60)
@given(terms=_TERMS, n=_SIZES, dt=st.floats(1e-4, 1e-2))
def test_fft_division_matches_forward_substitution(terms, n, dt):
    weights, rates = zip(*terms)
    kernel = SumOfExponentialsKernel(weights, rates)
    grid = solve_resolvent(kernel, dt, n * dt)
    rho, kcl = _sequential_solve(kernel, dt, n)
    # both solves lose digits alike when the density sits far below the
    # right-hand side's scale 1 / (dt K(0)): 2.2e-16 kappa is their floor
    kappa = 1.0 / (dt * kernel.k0_kprime0()[0] * np.max(np.abs(rho)))
    tol = max(1e-12, 10 * np.finfo(float).eps * kappa)
    assert _normwise(grid.density, rho) <= tol
    assert _normwise(grid.kprime_conv_L, kcl) <= tol
    report = check_hypotheses(grid)
    oracle = check_hypotheses(dataclasses.replace(grid, density=rho, kprime_conv_L=kcl))
    for flag in ("density_nonnegative", "kprime_conv_nonpositive", "kprime_conv_nondecreasing"):
        assert getattr(report, flag) == getattr(oracle, flag)


@pytest.mark.parametrize("func, kprime0", [
    (lambda t: np.exp(-t) * np.cos(t), -1.0),
    (lambda t: np.exp(-t) * np.cos(5 * t), -1.0),
    (lambda t: (1 - t) * np.exp(-t), -2.0),
    (lambda t: (1 - 3 * t) * np.exp(-t), -4.0),
], ids=["e^-t cos t", "e^-t cos 5t", "(1 - t) e^-t", "e^-t (1 - 3t)"])
def test_fft_division_of_non_monotone_kernels_matches_long_double(func, kprime0):
    # densities that oscillate, change sign or grow to 250; the last two
    # kernels fail solve_resolvent's residual bound, so the density solve is
    # called directly, on the same double grid as the long-double loop
    dt, n = 1e-3, 2000
    kernel = UserKernel(func, k0=1.0, kprime0=kprime0)
    k_grid = kernel.eval(dt * np.arange(n + 1))
    exact = _forward_substitution(k_grid.astype(np.longdouble), np.longdouble(1.0), np.longdouble(dt), n)
    assert _normwise(resolvent._solve_density(k_grid, 1.0, dt, n), exact) <= 1e-12


def test_solve_makes_logarithmically_many_fft_calls(monkeypatch):
    # guards the O(n log n) cost without a wall-clock bound: a per-step loop
    # of FFT products would make calls grow eight times from n = 1024 to 8192
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *args, **kw: calls.append(1) or rfft(*args, **kw))
    kernel = SumOfExponentialsKernel([0.5, 0.5], [1.0, 2.0])
    counts = []
    for n in (1024, 8192):
        calls.clear()
        solve_resolvent(kernel, dt=1.0 / n, horizon=1.0)
        counts.append(len(calls))
    assert 0 < counts[1] <= 1.5 * counts[0]
