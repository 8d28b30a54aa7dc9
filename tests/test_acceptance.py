"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single "acceptance NN: PASS/FAIL" line on the real
terminal (bypassing capture) and enforces both the numeric tolerance and a
wall-clock budget.  Oracles are independent of the library internals:
math.gamma closed forms, analytic moment identities, explicit inequality
arithmetic, and re-run determinism.
"""

import math
import time

import numpy as np
import pytest

from volterra_feller import (
    CIRModel,
    ConstantKernel,
    CustomModel,
    JacobiModel,
    PowerModel,
    ScaleContext,
    SimConfig,
    SumOfExponentialsKernel,
    TruncatedFractionalKernel,
    QuadratureScheme,
    Verdict,
    Boundary,
    family_test,
    fractional_condition_study,
    gaussian_quadrature_kernel,
    geometric_nodes,
    simulate,
    solve_resolvent,
)
from volterra_feller.simulate import scheme_discrepancy


def _finish(capsys, num, t0, budget, failures):
    elapsed = time.perf_counter() - t0
    if elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f}s exceeded {budget:g}s")
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"\nacceptance {num:02d}: {status} ({elapsed:.2f}s)")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _check(failures, ok, label):
    if not ok:
        failures.append(label)


def test_01_truncated_kernel_scalars(capsys):
    t0 = time.perf_counter()
    failures = []
    k = TruncatedFractionalKernel(0.5, 1.0)
    k0, kp0 = k.k0_kprime0()
    # gamma-function oracle, written out without reusing library code
    want_k0 = 1.0 / (math.gamma(0.5) * math.gamma(1.5))
    want_kp0 = -1.0 / (1.5 * math.gamma(0.5) * math.gamma(0.5))
    _check(failures, abs(want_k0 - 2.0 / math.pi) < 1e-15, "oracle k0 != 2/pi")
    _check(failures, abs(want_kp0 + 1.0 / (1.5 * math.pi)) < 1e-15, "oracle kp0 != -1/(1.5 pi)")
    _check(failures, abs(k0 - want_k0) <= 1e-10 * abs(want_k0), f"k0 {k0!r}")
    _check(failures, abs(kp0 - want_kp0) <= 1e-10 * abs(want_kp0), f"kprime0 {kp0!r}")
    at0 = k.eval(0.0)
    _check(failures, abs(at0 - want_k0) <= 1e-10 * abs(want_k0), f"eval(0) {at0!r}")
    _finish(capsys, 1, t0, 1.0, failures)


def test_02_resolvent_identities(capsys):
    t0 = time.perf_counter()
    failures = []
    kernel = SumOfExponentialsKernel([1.0], [1.0])  # K(t) = e^-t

    def residuals(dt):
        grid = solve_resolvent(kernel, dt=dt, horizon=2.0)
        return grid.kl_residual, float(np.max(np.abs(grid.kprime_conv_L + 1.0)))

    r_kl, r_kp = residuals(1e-3)
    _check(failures, r_kl <= 1e-2, f"|K*L - 1| = {r_kl:.3e}")
    _check(failures, r_kp <= 1e-2, f"|K'*L + 1| = {r_kp:.3e}")
    f_kl, f_kp = residuals(5e-4)
    _check(failures, f_kl <= 0.6 * r_kl, f"K*L contraction {f_kl / r_kl:.3f}")
    _check(failures, f_kp <= 0.6 * r_kp, f"K'*L contraction {f_kp / r_kp:.3f}")
    _finish(capsys, 2, t0, 5.0, failures)


def test_03_base_point_and_shift_relations(capsys):
    t0 = time.perf_counter()
    failures = []
    model = CIRModel(1.0, 1.0, 1.0, 1.0)
    flat = ConstantKernel(1.0)
    c1, c2 = ScaleContext(model, flat, c=0.5), ScaleContext(model, flat, c=1.5)
    # moving the base from c1 to c2 is an affine map for p and a p-weighted
    # shear for v as long as x stays on one side of both bases
    p_at_c1 = c2.scale(0.5)
    dp_at_c1 = c2.scale_derivative(0.5)
    v_at_c1 = c2.v(0.5)
    dv_at_c1 = c2.v_prime(0.5)
    left = np.linspace(0.05, 0.45, 10)
    right = np.linspace(1.6, 4.0, 10)
    worst_p = worst_v = 0.0
    for x in np.concatenate([left, right]):
        x = float(x)
        p_direct, v_direct = c2.scale(x), c2.v(x)
        p_chained = p_at_c1 + dp_at_c1 * c1.scale(x)
        v_chained = v_at_c1 + c1.scale(x) * dv_at_c1 + c1.v(x)
        worst_p = max(worst_p, abs(p_direct - p_chained) / max(abs(p_direct), 1e-30))
        worst_v = max(worst_v, abs(v_direct - v_chained) / max(abs(v_direct), 1e-30))
    _check(failures, worst_p <= 1e-6, f"p relation rel err {worst_p:.3e}")
    _check(failures, worst_v <= 1e-6, f"v relation rel err {worst_v:.3e}")

    # raising the below-c shift or lowering the above-c shift can only pull
    # the test function down; needs K'(0) < 0 to bite
    sloped = SumOfExponentialsKernel([1.0], [1.0])
    rng = np.random.default_rng(20240817)
    worst_gap = -math.inf
    for _ in range(50):
        beta = float(rng.uniform(-0.5, 0.5))
        gamma = float(rng.uniform(-0.5, 0.5))
        x = float(rng.uniform(0.2, 2.5))
        lo_ctx = ScaleContext(model, sloped, beta=beta + float(rng.uniform(0.0, 1.0)),
                              gamma=gamma - float(rng.uniform(0.0, 1.0)))
        hi_ctx = ScaleContext(model, sloped, beta=beta, gamma=gamma)
        worst_gap = max(worst_gap, lo_ctx.v(x) - hi_ctx.v(x))
    _check(failures, worst_gap <= 1e-9, f"shift monotonicity violated by {worst_gap:.3e}")
    _finish(capsys, 3, t0, 30.0, failures)


def test_04_series_sandwich(capsys):
    t0 = time.perf_counter()
    failures = []
    contexts = [
        (ScaleContext(CIRModel(1.0, 1.0, 1.0, 1.0), ConstantKernel(1.0)),
         np.linspace(0.2, 2.5, 17)),
        (ScaleContext(JacobiModel(0.0, 1.0, 1.0, 0.5, 1.0, 0.5), ConstantKernel(1.0)),
         np.linspace(0.05, 0.95, 17)),
        # base the power context at 1, so no sampled leg crosses the interior
        # diffusion zero at 0 (test_scale covers a series leg across it)
        (ScaleContext(PowerModel(1.5, 0.5, 1.0, 1.0), ConstantKernel(1.0)),
         np.linspace(0.3, 3.0, 16)),
    ]
    n_points = 0
    for ctx, xs in contexts:
        for x in xs:
            x = float(x)
            v = ctx.v(x)
            u = ctx.u_series(x, 8)
            slack = 1e-9 * max(1.0, u)
            _check(failures, 1.0 + v <= u + slack, f"lower bound at x={x:.3g}: 1+{v!r} vs {u!r}")
            _check(failures, u <= math.exp(v) + slack, f"upper bound at x={x:.3g}")
            n_points += 1
    _check(failures, n_points == 50, f"sampled {n_points} points")
    # zero drift, unit volatility: the series sums to cosh(sqrt(2) x)
    anchor = ScaleContext(
        CustomModel(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                    lambda x: np.ones_like(np.asarray(x, dtype=float)),
                    (-math.inf, math.inf), 0.0),
        ConstantKernel(1.0), c=0.0)
    u1 = anchor.u_series(1.0, 8)
    _check(failures, abs(u1 - math.cosh(math.sqrt(2.0))) <= 1e-6,
           f"u(1) = {u1!r} vs cosh(sqrt 2)")
    _finish(capsys, 4, t0, 30.0, failures)


def test_05_family_threshold_sweeps(capsys):
    t0 = time.perf_counter()
    failures = []
    flat = ConstantKernel(1.0)
    sloped = SumOfExponentialsKernel([1.0], [1.0])

    # CIR iff at 2 kappa theta >= sigma^2 (theta* = 0.5), equality keeps it
    for theta, want in zip([0.4, 0.45, 0.5, 0.55, 0.6], [False, False, True, True, True]):
        vs = family_test(CIRModel(1.0, theta, 1.0, 0.2), flat)
        got = any(v.verdict == Verdict.NO_EXIT_AS and v.boundary == Boundary.LEFT for v in vs)
        _check(failures, got == want, f"cir iff at theta={theta}")
        exits = any(v.verdict == Verdict.EXITS_WITH_POSITIVE_PROB and v.boundary == Boundary.LEFT
                    for v in vs)
        _check(failures, exits == (not want), f"cir iff exit claim at theta={theta}")

    # CIR necessary threshold x0* = K0^2 (K0 sigma^2 - 2 kappa theta) / (2 |Kp0|) = 0.25
    for x0, want_hold in zip([0.15, 0.2, 0.25, 0.3, 0.35], [False, False, True, True, True]):
        vs = family_test(CIRModel(1.0, 0.25, 1.0, x0), sloped)
        nec = [v for v in vs if v.theorem == "cir-necessary"]
        _check(failures, len(nec) == 1, f"cir necessary emitted at x0={x0}")
        got_hold = nec[0].verdict == Verdict.NECESSARY_HOLDS
        _check(failures, got_hold == want_hold, f"cir necessary at x0={x0}")

    # Jacobi per-side condition 2 kappa (theta - a) >= sigma^2 (b - a) and mirror
    for theta, want_l, want_r in zip(
        [0.4, 0.45, 0.5, 0.55, 0.6],
        [False, False, True, True, True],
        [True, True, True, False, False],
    ):
        vs = family_test(JacobiModel(0.0, 1.0, 1.0, theta, 1.0, 0.5), flat)
        got_l = any(v.verdict == Verdict.NO_EXIT_AS and v.boundary == Boundary.LEFT for v in vs)
        got_r = any(v.verdict == Verdict.NO_EXIT_AS and v.boundary == Boundary.RIGHT for v in vs)
        _check(failures, got_l == want_l, f"jacobi left at theta={theta}")
        _check(failures, got_r == want_r, f"jacobi right at theta={theta}")

    # Power right blow-up iff alpha > 1 + delta, strict (equality stays open)
    for alpha, want in zip([1.73, 1.74, 1.75, 1.76, 1.77], [False, False, False, True, True]):
        vs = family_test(PowerModel(alpha, 0.75, 1.0, 0.0), flat)
        got = any(v.verdict == Verdict.EXITS_WITH_POSITIVE_PROB and v.boundary == Boundary.RIGHT
                  for v in vs)
        _check(failures, got == want, f"power at alpha={alpha}")
    _finish(capsys, 5, t0, 1.0, failures)


def test_06_limit_classifier_vs_closed_form(capsys):
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(7)
    flat = ConstantKernel(1.0)
    cases = []
    for i in range(10):
        # target exponent well away from the threshold 1 on both sides
        e = float(rng.uniform(1.2, 2.5)) if i < 5 else float(rng.uniform(0.3, 0.85))
        kappa = float(rng.uniform(0.5, 2.0))
        sigma = float(rng.uniform(0.5, 1.5))
        theta = e * sigma**2 / (2.0 * kappa)
        cases.append((e, ScaleContext(CIRModel(kappa, theta, sigma, max(0.3, theta)), flat)))
    for i in range(10):
        e = float(rng.uniform(1.2, 2.5)) if i < 5 else float(rng.uniform(0.3, 0.85))
        kappa = float(rng.uniform(1.0, 2.0))
        sigma = float(rng.uniform(0.4, 0.7))
        theta = e * sigma**2 / (2.0 * kappa)
        cases.append((e, ScaleContext(JacobiModel(0.0, 1.0, kappa, theta, sigma, 0.5), flat)))
    matches = swept_matches = 0
    for e, ctx in cases:
        closed = ctx.boundary_limit("left", target="v")
        sampled = ctx.boundary_limit("left", target="v", method="sample", steps=40)
        # a custom clone has no closed rule, so auto sweeps it to its finite left end
        m = ctx.model
        clone = ScaleContext(CustomModel(m.drift, m.diffusion, m.interval, m.x0), ctx.kernel)
        swept = clone.boundary_limit("left", target="v")
        want = "divergent" if e >= 1.0 else "finite"
        if (closed.kind, closed.method) != (want, "closed"):
            failures.append(f"closed rule wrong at exponent {e:.3f}: "
                            f"{closed.kind} ({closed.method})")
        if closed.kind == sampled.kind:
            matches += 1
        else:
            failures.append(f"mismatch at exponent {e:.3f}: {closed.kind} vs {sampled.kind}")
        if (swept.kind, swept.method) == (closed.kind, "sweep"):
            swept_matches += 1
        else:
            failures.append(f"sweep mismatch at exponent {e:.3f}: {closed.kind} vs {swept.kind}")
    _check(failures, matches == 20, f"{matches}/20 agreements")
    _check(failures, swept_matches == 20, f"{swept_matches}/20 swept agreements")
    _finish(capsys, 6, t0, 120.0, failures)


def test_07_quadrature_moment_exactness(capsys):
    t0 = time.perf_counter()
    failures = []
    for alpha in (0.3, 0.5, 0.7):
        for q in (1, 2, 3):
            sch = QuadratureScheme(alpha, geometric_nodes(4, ratio=6.4), q=q)
            k = gaussian_quadrature_kernel(sch)
            xi_n = sch.nodes[-1]
            want_m = xi_n ** (1.0 - alpha) / (math.gamma(alpha) * math.gamma(2.0 - alpha))
            want_mx = xi_n ** (2.0 - alpha) / (
                (2.0 - alpha) * math.gamma(alpha) * math.gamma(1.0 - alpha))
            got_m = sum(k.weights)
            got_mx = sum(w * r for w, r in zip(k.weights, k.rates))
            _check(failures, abs(got_m - want_m) <= 1e-10 * want_m,
                   f"mass alpha={alpha} q={q}")
            _check(failures, abs(got_mx - want_mx) <= 1e-10 * want_mx,
                   f"first moment alpha={alpha} q={q}")
    single = gaussian_quadrature_kernel(QuadratureScheme(0.5, (0.0, 1.0), q=1))
    _check(failures, abs(single.weights[0] - 2.0 / math.pi) <= 1e-12, "single mass")
    _check(failures, abs(single.rates[0] - 1.0 / 3.0) <= 1e-12, "single node")
    _finish(capsys, 7, t0, 1.0, failures)


def test_08_truncation_regime_directions(capsys):
    t0 = time.perf_counter()
    failures = []
    model = CIRModel(1.0, 0.25, 1.0, 0.2)
    sweep = [10.0, 100.0, 1000.0, 10000.0]
    up = [r["necessary_threshold"]
          for r in fractional_condition_study(model, 0.4, sweep, scheme="truncation")]
    _check(failures, all(b > a for a, b in zip(up, up[1:])),
           f"alpha=0.4 thresholds not increasing: {up}")
    down = [r["necessary_threshold"]
            for r in fractional_condition_study(model, 0.6, sweep, scheme="truncation")]
    _check(failures, all(b < a for a, b in zip(down, down[1:])),
           f"alpha=0.6 thresholds not decreasing: {down}")
    _finish(capsys, 8, t0, 10.0, failures)


def test_09_monte_carlo_crosscheck(capsys):
    t0 = time.perf_counter()
    failures = []
    flat = ConstantKernel(1.0)
    cfg = SimConfig(dt=2.5e-4, horizon=5.0, n_paths=2000, seed=0)

    def run(theta):
        return simulate(CIRModel(1.0, theta, 1.0, 0.2), flat, cfg)

    good, good_again = run(1.0), run(1.0)
    bad, bad_again = run(0.125), run(0.125)
    _check(failures, good == good_again, "theta=1 run not reproducible")
    _check(failures, bad == bad_again, "theta=0.125 run not reproducible")
    _check(failures, good.hit_fraction <= 0.02,
           f"theta=1 hit fraction {good.hit_fraction}")
    _check(failures, bad.hit_fraction >= 10.0 * max(good.hit_fraction, 1e-12),
           f"fractions {good.hit_fraction} vs {bad.hit_fraction}")
    _finish(capsys, 9, t0, 180.0, failures)


def test_10_scheme_gap_contraction(capsys):
    t0 = time.perf_counter()
    failures = []
    rows = scheme_discrepancy(
        CIRModel(1.0, 1.0, 1.0, 1.0),
        SumOfExponentialsKernel([1.0], [1.0]),
        [2e-3, 1e-3, 5e-4],
        horizon=1.0,
        n_paths=50,
        seed=0,
    )
    gaps = {row["dt"]: row["max_terminal_gap"] for row in rows}
    r1 = gaps[2e-3] / gaps[1e-3]
    r2 = gaps[1e-3] / gaps[5e-4]
    _check(failures, r1 >= 1.8, f"first halving contracted only {r1:.3f}x")
    _check(failures, r2 >= 1.8, f"second halving contracted only {r2:.3f}x")
    _finish(capsys, 10, t0, 60.0, failures)
