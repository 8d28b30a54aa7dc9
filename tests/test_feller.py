import dataclasses
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from volterra_feller import (
    Boundary,
    BoundaryVerdict,
    CIRModel,
    ConstantKernel,
    CustomModel,
    JacobiModel,
    PowerModel,
    QuadratureScheme,
    ScaleContext,
    SimConfig,
    SumOfExponentialsKernel,
    TruncatedFractionalKernel,
    TruncationScheme,
    UserKernel,
    Verdict,
    bounded_interval_test,
    family_test,
    fractional_condition_study,
    geometric_nodes,
    necessary_test,
    solve_resolvent,
    check_hypotheses,
    sufficient_test,
    sup_inf_test,
    verdict_crosscheck,
)
from volterra_feller import feller, scale
from volterra_feller.errors import NumericError, PreconditionError
from volterra_feller.feller import _staged_side
from volterra_feller.scale import DIVERGENCE_CAP, kernel_scalars
from volterra_feller.simulate import scheme_discrepancy


def _find(verdicts, theorem, boundary=None):
    hits = [
        v
        for v in verdicts
        if v.theorem == theorem and (boundary is None or v.boundary == boundary)
    ]
    return hits


# ------------------------------------------------------------ family: CIR


def test_cir_sufficient_flips_at_equality(unit_kernel):
    # NoExitAS(Left) iff 2 kappa theta >= K0 sigma^2, equality included
    for theta, expect in [(0.4, False), (0.45, False), (0.5, True), (0.55, True), (0.6, True)]:
        vs = family_test(CIRModel(1.0, theta, 1.0, 0.2), unit_kernel)
        got = bool(_find(vs, "cir-sufficient", Boundary.LEFT))
        assert got == expect, f"theta={theta}"
        if got:
            assert _find(vs, "cir-sufficient")[0].verdict == Verdict.NO_EXIT_AS


def test_cir_necessary_threshold_with_sloped_kernel(sloped_kernel):
    # threshold x0 >= K0^2/(2|Kp0|) (K0 sigma^2 - 2 kappa theta) = 0.25 here
    kappa, theta, sigma = 1.0, 0.25, 1.0
    for x0, exits in [(0.15, True), (0.2, True), (0.25, False), (0.3, False), (0.35, False)]:
        vs = family_test(CIRModel(kappa, theta, sigma, x0), sloped_kernel)
        nec = _find(vs, "cir-necessary", Boundary.LEFT)
        assert len(nec) == 1
        want = Verdict.EXITS_WITH_POSITIVE_PROB if exits else Verdict.NECESSARY_HOLDS
        assert nec[0].verdict == want, f"x0={x0}"


def test_cir_classical_iff_when_condition_fails(unit_kernel):
    vs = family_test(CIRModel(1.0, 0.125, 1.0, 0.2), unit_kernel)
    exits = _find(vs, "cir-classical-iff", Boundary.LEFT)
    assert len(exits) == 1 and exits[0].verdict == Verdict.EXITS_WITH_POSITIVE_PROB
    sup = _find(vs, "cir-classical-sup-bound", Boundary.RIGHT)
    assert len(sup) == 1 and sup[0].verdict == Verdict.SUP_BOUNDED_AS
    # no iff claim when the kernel slope is nonzero
    vs2 = family_test(CIRModel(1.0, 0.125, 1.0, 0.2), SumOfExponentialsKernel([1.0], [1.0]))
    assert not _find(vs2, "cir-classical-iff")


# --------------------------------------------------------- family: Jacobi


def test_jacobi_sufficient_min_condition(unit_kernel):
    # left: 2 kappa (theta - a) >= K0 sigma^2 (b - a); mirrored on the right
    for theta, left_ok, right_ok in [
        (0.2, False, True),
        (0.5, True, True),
        (0.8, True, False),
    ]:
        m = JacobiModel(0.0, 1.0, 1.0, theta, 1.0, 0.5)
        vs = family_test(m, unit_kernel)
        assert bool(_find(vs, "jacobi-sufficient", Boundary.LEFT)) == left_ok
        assert bool(_find(vs, "jacobi-sufficient", Boundary.RIGHT)) == right_ok


def test_jacobi_necessary_thresholds(sloped_kernel):
    # a=0, b=1, kappa=1, sigma=1, theta=0.25: thr_l = 0.5*(1-0.5) = 0.25
    m = lambda x0: JacobiModel(0.0, 1.0, 1.0, 0.25, 1.0, x0)
    for x0, exits_left in [(0.1, True), (0.2, True), (0.25, False), (0.3, False)]:
        vs = family_test(m(x0), sloped_kernel)
        nec = _find(vs, "jacobi-necessary", Boundary.LEFT)
        want = Verdict.EXITS_WITH_POSITIVE_PROB if exits_left else Verdict.NECESSARY_HOLDS
        assert nec[0].verdict == want, f"x0={x0}"


def test_jacobi_affine_invariance(unit_kernel, rng):
    # mapping x -> s x + m with sigma^2 scaled by s leaves all verdicts fixed
    for _ in range(10):
        a, width = rng.uniform(-2, 2), rng.uniform(0.5, 3.0)
        kappa = rng.uniform(0.2, 3.0)
        theta = a + width * rng.uniform(0.05, 0.95)
        sigma = rng.uniform(0.3, 2.0)
        x0 = a + width * rng.uniform(0.05, 0.95)
        base = family_test(JacobiModel(a, a + width, kappa, theta, sigma, x0), unit_kernel)
        s, mshift = 2.5, -1.0
        mapped = family_test(
            JacobiModel(
                s * a + mshift,
                s * (a + width) + mshift,
                kappa,
                s * theta + mshift,
                sigma,
                s * x0 + mshift,
            ),
            unit_kernel,
        )
        assert [(v.boundary, v.verdict, v.theorem) for v in base] == [
            (v.boundary, v.verdict, v.theorem) for v in mapped
        ]


# ---------------------------------------------------------- family: power


def test_power_rule_strict_at_equality(unit_kernel):
    for alpha, delta, exits in [
        (1.74, 0.75, False),
        (1.75, 0.75, False),  # equality is NOT enough for the strict rule
        (1.76, 0.75, True),
        (2.0, 0.75, True),
        (1.1, 0.0, True),
    ]:
        vs = family_test(PowerModel(alpha, delta, 1.0, 0.0), unit_kernel)
        right = _find(vs, "power-right-blowup", Boundary.RIGHT)
        assert len(right) == 1
        want = Verdict.EXITS_WITH_POSITIVE_PROB if exits else Verdict.INCONCLUSIVE
        assert right[0].verdict == want, f"alpha={alpha}"
        left = _find(vs, "power-no-left-blowup", Boundary.LEFT)
        assert left[0].verdict == Verdict.NO_EXIT_AS


def test_family_test_rejects_custom_models(unit_kernel):
    m = CustomModel(lambda x: -x, lambda x: np.ones_like(x), (0.0, 1.0), 0.5)
    with pytest.raises(PreconditionError):
        family_test(m, unit_kernel)


# --------------------------------------------------- generic verdict tests


def test_necessary_matches_family_on_cir(sloped_kernel):
    for x0 in [0.1, 0.4]:
        model = CIRModel(1.0, 0.25, 1.0, x0)
        ctx = ScaleContext(model, sloped_kernel)
        nec = necessary_test(ctx)
        fam = _find(family_test(model, sloped_kernel), "cir-necessary", Boundary.LEFT)[0]
        if fam.verdict == Verdict.EXITS_WITH_POSITIVE_PROB:
            assert nec.verdict == Verdict.EXITS_WITH_POSITIVE_PROB
            assert nec.boundary == Boundary.LEFT
        else:
            assert nec.verdict == Verdict.NECESSARY_HOLDS


def test_necessary_on_a_bounded_interval_matches_family(sloped_kernel):
    # the default shift margin is 1e-6 of the interval's width, here 4
    for x0 in [0.0, 1.0, 2.0]:
        model = JacobiModel(-1.0, 3.0, 1.0, 1.0, 1.5, x0)
        nec = necessary_test(ScaleContext(model, sloped_kernel))
        assert nec.verdict == Verdict.EXITS_WITH_POSITIVE_PROB
        both = nec.boundary == Boundary.BOTH
        sides = {Boundary.LEFT, Boundary.RIGHT} if both else {nec.boundary}
        fam = _find(family_test(model, sloped_kernel), "jacobi-necessary")
        assert sides == {v.boundary for v in fam if v.verdict == Verdict.EXITS_WITH_POSITIVE_PROB}
        assert nec.evidence[-1] == ("eps_shift", 1e-6 * 4.0, 0.0)


def test_cir_threshold_without_kernel_slope_follows_the_sufficient_gap():
    # with K'(0) = 0 exit does not depend on x0: the threshold is +inf when
    # the sufficient gap is negative, -inf when it is not
    assert CIRModel(1.0, 0.25, 1.0, 1.0).necessary_threshold(1.0, 0.0) == math.inf
    assert CIRModel(1.0, 0.5, 1.0, 1.0).necessary_threshold(1.0, 0.0) == -math.inf
    assert CIRModel(1.0, 1.0, 1.0, 1.0).necessary_threshold(1.0, 0.0) == -math.inf


def test_unsettled_sweeps_to_a_finite_endpoint_leave_verdicts_inconclusive(sloped_kernel):
    # 64 base panels allow one round, so no sweep of the custom clone settles:
    # the swept limit is inconclusive with NumericError's details, and the
    # staged sufficient test stops at its first stage instead of raising
    jm = JacobiModel(0.0, 1.0, 1.0, 0.5, 1.0, 0.5)
    clone = CustomModel(jm.drift, jm.diffusion, jm.interval, jm.x0)
    ctx = ScaleContext(clone, sloped_kernel, max_panels=64)
    lim = ctx.boundary_limit("right")
    assert (lim.kind, lim.value, lim.method) == ("inconclusive", None, "sweep")
    assert lim.evidence["max_panels"] == 64
    out = sufficient_test(ctx)
    assert out.verdict == Verdict.INCONCLUSIVE
    assert not any(label.startswith("v at stage point") for label, _, _ in out.evidence)


def test_verdict_survives_moving_the_base_point(sloped_kernel):
    # the verdict is a property of the boundary, not of where the scale
    # function is anchored; re-run one case with c halfway to the boundary
    model = CIRModel(1.0, 0.25, 1.0, 0.4)
    default = necessary_test(ScaleContext(model, sloped_kernel))
    mid = 0.5 * (model.x0 + model.interval[0])
    moved = necessary_test(ScaleContext(model, sloped_kernel, c=mid))
    assert (moved.boundary, moved.verdict) == (default.boundary, default.verdict)


def test_necessary_monotone_in_x0(sloped_kernel):
    # once x0 passes the left threshold, any larger x0 passes it too
    passed = []
    for x0 in [0.05, 0.15, 0.25, 0.35, 0.45]:
        ctx = ScaleContext(CIRModel(1.0, 0.25, 1.0, x0), sloped_kernel)
        nec = necessary_test(ctx)
        passed.append(nec.verdict != Verdict.EXITS_WITH_POSITIVE_PROB)
    assert passed == sorted(passed)  # False ... False True ... True


def test_sufficient_establishes_no_exit_for_good_cir(unit_kernel):
    ctx = ScaleContext(CIRModel(1.0, 1.0, 1.0, 0.5), unit_kernel)
    out = sufficient_test(ctx)
    assert out.verdict == Verdict.NO_EXIT_AS
    assert out.boundary in (Boundary.LEFT, Boundary.BOTH)


def test_sufficient_inconclusive_when_volatility_dominates(unit_kernel):
    ctx = ScaleContext(JacobiModel(0.0, 1.0, 1.0, 0.5, 10.0, 0.5), unit_kernel)
    out = sufficient_test(ctx)
    assert out.verdict == Verdict.INCONCLUSIVE


# float.hex of staged v values under K = e^-t, each v(x_n) with shift -x_n:
# the right side of a CIR model whose left limit diverges (x_n = c + 2^n),
# and the left side of one whose left limit is finite, after the limit's
# swept value (x_n = c 2^-n)
_STAGED_BITS = {
    "right": (
        "0x1.2c428484c7eedp+1 0x1.bd066c6cea1b4p+2 0x1.933b998221e00p+5 0x1.0a5b558f9ce8bp+12 "
        "0x1.9195a20ff573fp+25 0x1.5d630ae91a70dp+53 0x1.835b7f5239947p+109 "
        "0x1.56645b33bfaf5p+222"
    ),
    "left": (
        "0x1.dea19c67fd97bp+0 0x1.e45e903b391e7p-3 0x1.1887e7e420e91p-1 0x1.9d4abf1312525p-1 "
        "0x1.04ce5d05f2bb6p+0 0x1.313e45a58023cp+0 0x1.55a837a4728cbp+0 0x1.7344c11caa8d4p+0 "
        "0x1.8b16eb876fb0cp+0"
    ),
}


def test_staged_sufficient_evidence_is_pinned_to_the_bit(sloped_kernel):
    def bits(values):
        return " ".join(float(v).hex() for v in values)

    _, right = _staged_side(ScaleContext(CIRModel(1.0, 0.9, 1.0, 0.82), sloped_kernel), "right", 8)
    assert len(right) == 8
    assert bits(val for _, val, _ in right) == _STAGED_BITS["right"]
    ctx = ScaleContext(CIRModel(1.0, 0.3, 1.0, 1.0), sloped_kernel)
    limit = ctx.with_shifts(0.0, 0.0).boundary_limit("left")
    assert (limit.kind, limit.method) == ("finite", "closed")
    _, left = _staged_side(ctx, "left", 8)
    assert len(left) == 8 and left[-1][0].startswith("v at stage point 0.00390625")
    assert bits([limit.value, *(val for _, val, _ in left)]) == _STAGED_BITS["left"]


def test_bounded_interval_equivalence(unit_kernel):
    # low volatility: no exit at all; high volatility: exits both sides
    good = ScaleContext(JacobiModel(0.0, 1.0, 4.0, 0.5, 1.0, 0.5), unit_kernel)
    assert bounded_interval_test(good).verdict == Verdict.NO_EXIT_AS
    bad = ScaleContext(JacobiModel(0.0, 1.0, 1.0, 0.5, 4.0, 0.5), unit_kernel)
    out = bounded_interval_test(bad)
    assert out.verdict == Verdict.EXITS_WITH_POSITIVE_PROB
    assert out.boundary == Boundary.BOTH


def test_bounded_interval_preconditions(unit_kernel, sloped_kernel):
    with pytest.raises(PreconditionError, match="bounded"):
        bounded_interval_test(ScaleContext(CIRModel(1.0, 1.0, 1.0, 0.5), unit_kernel))
    # Jacobi diffusion vanishes like sqrt at both ends: 1/sigma~^2 is not
    # integrable, so a sloped kernel cannot use the equivalence
    with pytest.raises(PreconditionError, match="integrab"):
        bounded_interval_test(
            ScaleContext(JacobiModel(0.0, 1.0, 1.0, 0.5, 1.0, 0.5), sloped_kernel)
        )


def test_bounded_interval_integrability_ladder_sees_divergence(sloped_kernel):
    # sigma~^2 = x on (0, 2): 1/sigma~^2 is not integrable at 0, and the end
    # panels reaching (r - l) 2^-498 and 2^-997 (the deepest above 1e-300)
    # fit exponent -1 at both.  With a log factor, x log(1/x) (not
    # integrable) and x log^2(1/x) (integrable) on (0, 0.5) fit -0.99712 ->
    # -0.99856 and -0.99424 -> -0.99711: the distance from -1 never exceeds
    # twice the change, since it halves as the depth doubles, so neither is
    # shown integrable.  Nor is (x - 1) log(1/(x - 1)) on (1, 1.5), -0.9311
    # -> -0.9630 at depths 2^-17 and 2^-35, the deepest above 2^-36 |s|
    cases = [
        ((0.0, 2.0), lambda x: 1.0 - x, np.sqrt),
        ((0.0, 0.5), lambda x: 0.25 - x, lambda x: np.sqrt(x * np.log(1.0 / x))),
        ((0.0, 0.5), lambda x: 0.25 - x, lambda x: np.sqrt(x) * np.log(1.0 / x)),
        ((1.0, 1.5), lambda x: 1.25 - x, lambda x: np.sqrt((x - 1.0) * np.log(1.0 / (x - 1.0)))),
    ]
    for (l, r), drift, diffusion in cases:
        model = CustomModel(drift, diffusion, (l, r), 0.5 * (l + r))
        with pytest.raises(PreconditionError, match="integrab"):
            bounded_interval_test(ScaleContext(model, sloped_kernel))


def test_bounded_interval_accepts_an_integrable_power_singularity(sloped_kernel):
    # sigma = x^0.45: 1/sigma~^2 = x^-0.9 integrates to 10 on (0, 1), and its
    # end panels fit exponent -0.9 at every depth, to the 2e-11 the fit
    # rounds by 1e-300 from the endpoint
    model = CustomModel(lambda x: 0.5 - x, lambda x: x**0.45, (0.0, 1.0), 0.5)
    out = bounded_interval_test(ScaleContext(model, sloped_kernel))
    assert out.evidence[0][0].startswith("1/sigma~^2 fitted exponent at 0")
    assert out.evidence[0][1] == pytest.approx(-0.9, abs=1e-10)


@pytest.mark.parametrize("interval, x0", [
    ((0.0, 1.0), 0.5), ((0.0, 1.0), 0.95), ((0.0, 1.0), 1.0 - 1e-7), ((10.0, 11.0), 10.5),
])
def test_bounded_interval_integrability_depends_on_the_model_alone(interval, x0, sloped_kernel):
    # constant sigma: 1/sigma~^2 is bounded, and its fit reads exponent 0 at
    # both ends whatever x0 is, also where 2^-36 |s| cuts the depths short
    l, r = interval
    model = CustomModel(lambda x: 0.5 * (l + r) - x, lambda x: np.ones_like(x), interval, x0)
    out = bounded_interval_test(ScaleContext(model, sloped_kernel))
    assert out.verdict == Verdict.EXITS_WITH_POSITIVE_PROB
    fits = out.evidence[:2]
    assert [name for name, _, _ in fits] == [
        f"1/sigma~^2 fitted exponent at {s:.6g} (integrable if above)" for s in interval]
    assert [(beta, bound) for _, beta, bound in fits] == [(0.0, -1.0 + 1e-9)] * 2


def test_bounded_interval_needs_float_resolution_at_the_endpoints(sloped_kernel):
    # (1e12, 1e12 + 1) is narrower than 2^-36 |s| at its ends: no end panel fits
    model = CustomModel(lambda x: 1e12 + 0.5 - x, lambda x: np.ones_like(x),
                        (1e12, 1e12 + 1.0), 1e12 + 0.5)
    with pytest.raises(PreconditionError, match="cannot be fitted at 1e"):
        bounded_interval_test(ScaleContext(model, sloped_kernel))


def test_sup_inf_classical_cir(unit_kernel):
    # 2 kappa theta < sigma^2: trajectories stay a.s. bounded above
    ctx = ScaleContext(CIRModel(0.25, 0.25, 1.0, 0.2), unit_kernel)
    out = sup_inf_test(ctx)
    assert out.verdict == Verdict.SUP_BOUNDED_AS
    assert out.boundary == Boundary.RIGHT


def test_sup_inf_needs_a_finite_boundary(sloped_kernel):
    ctx = ScaleContext(PowerModel(1.5, 0.0, 1.0, 1.0), sloped_kernel)
    with pytest.raises(PreconditionError):
        sup_inf_test(ctx)


def test_sup_inf_skips_the_infinite_side_when_kprime0_is_negative(sloped_kernel):
    # only the left boundary 0 of CIR is tested: two limits under its shift
    out = sup_inf_test(ScaleContext(CIRModel(1.0, 1.0, 1.0, 1.0), sloped_kernel))
    assert [name for name, _, _ in out.evidence] == [
        "|p|(left+) with shift 0 divergence exponent (divergent iff >= 1)",
        "|p|(right-) with shift 0",
    ]
    assert out.verdict == Verdict.INCONCLUSIVE


def test_staged_side_stops_after_two_infinite_stages(sloped_kernel):
    # v overflows from the second stage on, so the march stops at the third
    # of its eight stages
    ok, evidence = _staged_side(ScaleContext(CIRModel(200.0, 2.0, 0.5, 1.0), sloped_kernel),
                                "right", 8)
    staged = [(name, value) for name, value, _ in evidence if name.startswith("v at stage")]
    assert [name for name, _ in staged] == [
        "v at stage point 3 with shift -3",
        "v at stage point 5 with shift -5",
        "v at stage point 9 with shift -9",
    ]
    assert math.isfinite(staged[0][1])
    assert staged[1][1] == staged[2][1] == math.inf
    assert ok


def _staged_side_one_stage_at_a_time(ctx, which, n_stages):
    # the oracle: each stage's v by a stabilized sweep of its own, in order,
    # up to the first NumericError or after two infinite values in a row
    vals = []
    evidence = []
    inf_streak = 0
    for x_n in ctx._approach(which, n_stages, "n_stages"):
        shift = -x_n
        try:
            val = ctx.with_shifts(shift, shift).v(x_n)
        except NumericError:
            break
        vals.append(val)
        evidence.append((f"v at stage point {x_n:.6g} with shift {shift:.6g}", val,
                         DIVERGENCE_CAP))
        inf_streak = inf_streak + 1 if math.isinf(val) else 0
        if inf_streak >= 2:
            break
    if len(vals) < 2:
        return False, evidence
    grows = all(b >= a * (1.0 - 1e-9) for a, b in zip(vals, vals[1:]))
    return grows and vals[-1] >= DIVERGENCE_CAP, evidence


def _clone(model):
    # the same coefficients as a CustomModel, with no closed forms
    return CustomModel(model.drift, model.diffusion, model.interval, model.x0)


@st.composite
def _staged_cases(draw):
    # (context, side, stages) for a drawn model of each family or its clone,
    # K = 1 or e^-t, and a base-panel cap of 4096, 128 (a stage still open
    # after the first shared pass fails) or 64 (every stage fails)
    pos = st.floats(0.2, 3.0)
    kind = draw(st.sampled_from(["cir", "jacobi", "power"]))
    if kind == "cir":
        model = CIRModel(draw(pos), draw(st.floats(0.05, 3.0)), draw(pos), draw(pos))
    elif kind == "jacobi":
        inside = st.floats(0.1, 0.9)
        model = JacobiModel(0.0, 1.0, draw(pos), draw(inside), draw(pos), draw(inside))
    else:
        model = PowerModel(draw(st.floats(1.1, 2.5)), draw(st.floats(0.0, 0.9)), draw(pos),
                           draw(st.floats(0.2, 2.0)))
    model = _clone(model) if draw(st.booleans()) else model
    kernel = draw(st.sampled_from([ConstantKernel(1.0), SumOfExponentialsKernel([1.0], [1.0])]))
    ctx = ScaleContext(model, kernel, max_panels=draw(st.sampled_from([4096, 128, 64])))
    return ctx, draw(st.sampled_from(["left", "right"])), draw(st.sampled_from([8, 5, 2]))


def _hex_evidence(side):
    ok, evidence = side
    return ok, [(name, float(value).hex(), cap) for name, value, cap in evidence]


@settings(max_examples=40)
@given(case=_staged_cases())
@example(case=(ScaleContext(CIRModel(200.0, 2.0, 0.5, 1.0), SumOfExponentialsKernel([1.0], [1.0])),
               "right", 8))
@example(case=(ScaleContext(CIRModel(1.0, 0.9, 1.0, 0.82), SumOfExponentialsKernel([1.0], [1.0]),
                            max_panels=64), "right", 8))
@example(case=(ScaleContext(PowerModel(2.0, 0.5, 1.0, 3.0), SumOfExponentialsKernel([1.0], [1.0]),
                            max_panels=128), "left", 8))
def test_staged_stages_in_one_batch_match_one_stage_at_a_time(case):
    # every stage is a leg of one batch of sweeps; the evidence, read in stage
    # order under the same stop rules, must be the oracle's to the bit.  The
    # examples: v overflows from stage 2 (three stages read), every stage
    # fails, and stage 2 of 8 fails while stages 3 and 4 settle (one read)
    ctx, which, n_stages = case
    assert (_hex_evidence(_staged_side(ctx, which, n_stages))
            == _hex_evidence(_staged_side_one_stage_at_a_time(ctx, which, n_stages)))


def test_staged_side_refines_all_stages_in_one_batch(monkeypatch, sloped_kernel):
    # the eight one-point legs of a staged side settle in their first shared
    # pass: one _refine call for all of them, where a sweep per stage made eight
    ctx = ScaleContext(CIRModel(1.0, 0.9, 1.0, 0.82), sloped_kernel)
    calls, refine = [], ScaleContext._refine

    def counted(self, a, *rest):
        calls.append(len(a))
        return refine(self, a, *rest)

    monkeypatch.setattr(ScaleContext, "_refine", counted)
    ok, evidence = _staged_side(ctx, "right", 8)
    assert ok and len(evidence) == 8 and len(calls) == 1


def test_chunks_integrate_in_batches_of_passes(monkeypatch, sloped_kernel):
    # guards the batching without a wall-clock bound: an interior u_series
    # settles in its first round, whose 64- and 128-panel passes integrate in
    # one _advance call, where a call per pass made two; the staged side's 16
    # passes (8 stages, 2 rounds) take fewer calls than passes, and no batch
    # of several passes is over the row cap
    calls, advance = [], ScaleContext._advance

    def counted(self, a, b, vals, fallback, cuts, *rest):
        calls.append((len(cuts) - 1, len(a)))
        return advance(self, a, b, vals, fallback, cuts, *rest)

    monkeypatch.setattr(ScaleContext, "_advance", counted)
    ctx = ScaleContext(CIRModel(1.0, 0.9, 1.0, 0.82), sloped_kernel)
    ctx.u_series(1.3, 8)
    assert [passes for passes, _ in calls] == [2]
    calls.clear()
    ok, evidence = _staged_side(ctx, "right", 8)
    assert ok and len(evidence) == 8
    assert sum(passes for passes, _ in calls) == 16 and len(calls) < 16
    assert all(rows <= scale._BATCH_ROWS for passes, rows in calls if passes > 1)


def test_staged_graded_passes_in_one_batch_match_one_stage_at_a_time(monkeypatch, sloped_kernel):
    # each pass of a batch takes its graded panels under its own stage's
    # shift and grading depth; the stages of this side have graded panels
    # but more rows than the batch cap, which is lifted here to batch them
    monkeypatch.setattr(scale, "_BATCH_ROWS", 10**9)
    ctx = ScaleContext(PowerModel(2.0, 0.0, 1.0, 0.5), sloped_kernel)
    assert (_hex_evidence(_staged_side(ctx, "right", 8))
            == _hex_evidence(_staged_side_one_stage_at_a_time(ctx, "right", 8)))


def test_staged_side_memory_stays_near_one_stage(sloped_kernel):
    # the batch holds every stage's node values at once; its peak stays
    # within 1.5 times that of the last and largest stage swept alone (1.4
    # when this was written)
    ctx = ScaleContext(CIRModel(1.0, 0.9, 1.0, 0.82), sloped_kernel)
    x = ctx.c + 256.0
    last = ctx.with_shifts(-x, -x)

    def peak(run):
        run()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(lambda: last._stabilized_legs([(-x, [x])], "log_v"))
    batch = peak(lambda: _staged_side(ctx, "right", 8))
    assert batch <= 1.5 * one, (batch, one)


# ------------------------------------------- classical truth at K'(0) = 0


def _classical_case(family, k, nu, theta, s):
    # a model at K = k whose classical exponent at its left end is nu (CIR:
    # nu = 2 kappa theta / (k sigma^2)), under the time change (kappa,
    # sigma) -> (s^2 kappa, s sigma), which moves no verdict; with, per
    # side, whether the end is reached with positive probability
    if family == "cir":
        model = CIRModel(s**2, 0.5 * nu * k, s, 1.0)
        return ScaleContext(model, ConstantKernel(k)), {"left": nu < 1.0, "right": False}
    # Jacobi on (0, 1) with sigma = s: nu at 0, nu (1 - theta) / theta at 1
    model = JacobiModel(0.0, 1.0, s**2 * nu * k / (2.0 * theta), theta, s, 0.5)
    nu_right = nu * (1.0 - theta) / theta
    return ScaleContext(model, ConstantKernel(k)), {"left": nu < 1.0, "right": nu_right < 1.0}


def _off_threshold(nu, theta):
    # both ends' exponents at least 1% away from 1
    return all(abs(x - 1.0) >= 0.01 for x in (nu, nu * (1.0 - theta) / theta))


def _sides(verdict):
    return ("left", "right") if verdict.boundary == Boundary.BOTH else (verdict.boundary.lower(),)


_CLASSICAL = dict(
    family=st.sampled_from(["cir", "jacobi"]),
    k=st.floats(0.5, 2.0),
    nu=st.floats(0.2, 0.99) | st.floats(1.01, 3.0),
    theta=st.floats(0.1, 0.9),
    s=st.floats(-8.0, 8.0).map(lambda e: 10.0**e),
)


@settings(max_examples=30)
@given(**_CLASSICAL)
@example(family="cir", k=1.0, nu=0.526, theta=0.5, s=1.2e-8)
@example(family="cir", k=1.0, nu=0.2, theta=0.5, s=1e-7)
def test_sufficient_verdict_survives_a_time_change_at_a_constant_kernel(family, k, nu, theta, s):
    # at K = k the equation is a classical diffusion, and (kappa, sigma) ->
    # (s^2 kappa, s sigma) only changes its clock; v scales as 1/s^2, so
    # stage values read against an absolute level moved the verdict
    assume(family == "cir" or _off_threshold(nu, theta))
    scaled, _ = _classical_case(family, k, nu, theta, s)
    plain, _ = _classical_case(family, k, nu, theta, 1.0)
    got, want = sufficient_test(scaled), sufficient_test(plain)
    assert (got.boundary, got.verdict) == (want.boundary, want.verdict)


@settings(max_examples=30)
@given(**_CLASSICAL)
@example(family="cir", k=1.0, nu=0.526, theta=0.5, s=1.2e-8)
def test_no_strong_verdict_contradicts_the_classical_thresholds(family, k, nu, theta, s):
    # Feller's test: an end is reached with positive probability iff its
    # exponent is below 1; for CIR, 0 is not hit iff 2 kappa theta >= k sigma^2
    assume(family == "cir" or _off_threshold(nu, theta))
    _assert_no_strong_verdict_against(*_classical_case(family, k, nu, theta, s))


def _contradictions(verdict, hit, sides=("left", "right")):
    # the sides, of those in sides, where a strong exit verdict contradicts
    # hit: per side, whether the end is reached with positive probability
    claims = {Verdict.NO_EXIT_AS: False, Verdict.EXITS_WITH_POSITIVE_PROB: True}
    if verdict.verdict not in claims:
        return []
    return [side for side in _sides(verdict)
            if side in sides and hit[side] != claims[verdict.verdict]]


def _assert_no_strong_verdict_against(ctx, hit):
    for verdict in [sufficient_test(ctx), *family_test(ctx.model, ctx.kernel)]:
        assert _contradictions(verdict, hit) == [], verdict


@settings(max_examples=30)
@given(k=st.floats(0.5, 2.0), alpha=st.floats(1.01, 2.0), delta=st.floats(0.0, 0.95),
       sigma=st.floats(-4.0, 4.0).map(lambda e: 10.0**e))
@example(k=1.0, alpha=1.02, delta=0.5, sigma=1.0)
def test_no_strong_verdict_contradicts_power_explosion(k, alpha, delta, sigma):
    # b = |x|^alpha with alpha > 1: v' ~ 1 / (k y^alpha) at large y, so v is
    # finite at +inf and +inf is reached, whatever delta; -inf never is.  The
    # necessary test reads the closed rule, so it finds that exit
    ctx = ScaleContext(PowerModel(alpha, delta, sigma, 1.0), ConstantKernel(k))
    _assert_no_strong_verdict_against(ctx, {"left": False, "right": True})
    out = necessary_test(ctx)
    assert (out.boundary, out.verdict) == (Boundary.RIGHT, Verdict.EXITS_WITH_POSITIVE_PROB)


def test_power_explosion_under_a_steep_kernel_is_found_by_the_necessary_test():
    # K = e^(-5t): v(+inf) is finite but about 2e32, past DIVERGENCE_CAP,
    # which a sweep to x = 9 already reached (log v = 34.1); the closed rule
    # reads no level
    ctx = ScaleContext(PowerModel(1.5, 0.75, 1.0, 1.0), SumOfExponentialsKernel([1.0], [5.0]))
    out = necessary_test(ctx)
    assert (out.boundary, out.verdict) == (Boundary.RIGHT, Verdict.EXITS_WITH_POSITIVE_PROB)


def _custom_oracle_case(a, b, q0, q1, s, k):
    # a custom model on (0, inf) at K = k with log p' = -a log x + (a - b)
    # log(1 + x): sigma = s x^q0 (1 + x)^(q1 - q0) and drift = k sigma^2 / 2
    # (a / x - (a - b) / (1 + x)).  Feller's test gives, per side, whether
    # the end is reached with positive probability (v finite there), and
    # whether |p| is finite there
    def sigma(x):
        x = np.asarray(x, dtype=float)
        return s * x**q0 * (1.0 + x) ** (q1 - q0)

    def drift(x):
        x = np.asarray(x, dtype=float)
        return k * sigma(x) ** 2 / 2.0 * (a / x - (a - b) / (1.0 + x))

    ctx = ScaleContext(CustomModel(drift, sigma, (0.0, math.inf), 1.0), ConstantKernel(k))
    hit = {"left": a < 1.0 and q0 < 1.0, "right": b > 1.0 and q1 > 1.0}
    p_finite = {"left": a < 1.0, "right": b > 1.0}
    return ctx, hit, p_finite


_MARGIN = st.floats(0.005, 0.5)
_EXPONENT = st.builds(lambda m, up: 1.0 + m if up else 1.0 - m, _MARGIN, st.booleans())


@settings(max_examples=25, deadline=None)
@given(a=_EXPONENT, b=_EXPONENT, q0=_EXPONENT, q1=_EXPONENT,
       s=st.floats(-8.0, 8.0).map(lambda e: 10.0**e), k=st.floats(0.5, 2.0))
def test_custom_oracle_no_strong_verdict_contradicts_fellers_test(a, b, q0, q1, s, k):
    # log terms appear where a - 2 q0 or b - 2 q1 is -1
    assume(abs(a - 2.0 * q0 + 1.0) >= 0.01 and abs(b - 2.0 * q1 + 1.0) >= 0.01)
    ctx, hit, _ = _custom_oracle_case(a, b, q0, q1, s, k)
    assert _contradictions(necessary_test(ctx), hit) == []
    assert _contradictions(sufficient_test(ctx), hit, ("left",)) == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_custom_oracle_sup_bound_reads_a_slow_finite_p_tail():
    # p' ~ y^-1.03 at +inf: p is finite at both ends, so the supremum is not
    # a.s. bounded, but the sampled classifier reads |p| as divergent there
    ctx, _, p_finite = _custom_oracle_case(0.6, 1.03, 0.9, 0.9, 1.0, 1.0)
    assert p_finite == {"left": True, "right": True}
    out = sup_inf_test(ctx)
    assert out.verdict != Verdict.SUP_BOUNDED_AS


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
@pytest.mark.parametrize("a, b, q0, q1, s, k", [(1.2, 1.05, 0.9, 1.2, 2e-8, 1.0),
                                                (0.9, 1.1, 0.9, 1.2, 3e-8, 1.0)])
def test_custom_oracle_stages_read_a_slow_finite_v_against_the_cap(a, b, q0, q1, s, k):
    # v(inf) is finite, about 1 / s^2, so +inf is reached; the stages read
    # it against DIVERGENCE_CAP and certify no exit there
    ctx, hit, _ = _custom_oracle_case(a, b, q0, q1, s, k)
    assert hit["right"]
    assert _contradictions(sufficient_test(ctx), hit) == []


def test_tiny_brownian_motion_on_an_interval_is_not_certified(unit_kernel):
    # b = 0, sigma = 1e-7 on (0, 1) leaves the interval a.s.; v is finite,
    # about 1e14, at both ends, which the staged test read as divergence
    model = CustomModel(np.zeros_like, lambda x: np.full_like(x, 1e-7), (0.0, 1.0), 0.5)
    out = sufficient_test(ScaleContext(model, unit_kernel))
    assert (out.boundary, out.verdict) == (Boundary.BOTH, Verdict.INCONCLUSIVE)


def test_slow_cir_is_certified_only_where_zero_is_not_hit(unit_kernel):
    # the s = 1e-7 time change of CIRModel(1, 0.1, 1, 1): nu = 0.2, so 0 is hit
    out = sufficient_test(ScaleContext(CIRModel(1e-14, 0.1, 1e-7, 1.0), unit_kernel))
    assert (out.boundary, out.verdict) == (Boundary.RIGHT, Verdict.NO_EXIT_AS)
    assert out.evidence[-1] == ("v(right)", math.inf, DIVERGENCE_CAP)


def _count_stage_calls(monkeypatch):
    # the sides _staged_side runs, and the legs of each _stabilized_legs call
    staged, legs = [], []
    run_staged, run_legs = feller._staged_side, ScaleContext._stabilized_legs

    def counted_staged(ctx, which, n_stages):
        staged.append(which)
        return run_staged(ctx, which, n_stages)

    def counted_legs(self, *args, **kwargs):
        legs.append(len(args[0]))
        return run_legs(self, *args, **kwargs)

    monkeypatch.setattr(feller, "_staged_side", counted_staged)
    monkeypatch.setattr(ScaleContext, "_stabilized_legs", counted_legs)
    return staged, legs


def test_constant_kernel_cir_reads_its_right_side_off_the_closed_rule(monkeypatch, unit_kernel):
    # K'(0) = 0: every stage is v_c, so +inf is decided by v's limit there,
    # with no sweep.  nu = 2 diverges at 0 by the closed rule too; nu = 0.5
    # is finite there by it, and no triple reports its value, so no side sweeps
    staged, legs = _count_stage_calls(monkeypatch)
    out = sufficient_test(ScaleContext(CIRModel(1.0, 1.0, 1.0, 1.0), unit_kernel))
    assert (out.boundary, out.verdict) == (Boundary.BOTH, Verdict.NO_EXIT_AS)
    assert (staged, legs) == ([], [])
    out = sufficient_test(ScaleContext(CIRModel(1.0, 0.25, 1.0, 1.0), unit_kernel))
    assert (out.boundary, out.verdict) == (Boundary.RIGHT, Verdict.NO_EXIT_AS)
    assert (staged, legs) == ([], [])


def test_constant_kernel_power_drift_reads_both_sides_off_the_closed_rule(monkeypatch, unit_kernel):
    # alpha <= 1 + delta: the closed rule still decides +inf (finite), so no
    # side stages, and the sampled classifier never reads v's slow y^-1.02 tail
    staged, legs = _count_stage_calls(monkeypatch)
    out = sufficient_test(ScaleContext(PowerModel(1.02, 0.5, 1.0, 1.0), unit_kernel))
    assert (out.boundary, out.verdict) == (Boundary.LEFT, Verdict.NO_EXIT_AS)
    assert (staged, legs) == ([], [])


def test_constant_kernel_custom_model_still_stages_toward_infinity(monkeypatch, unit_kernel):
    # a custom model's rule at an infinite end is the sampled classifier, so
    # its right side keeps the stages
    model = CustomModel(lambda x: 1.0 - x, lambda x: np.sqrt(x), (0.0, math.inf), 1.0)
    staged, _ = _count_stage_calls(monkeypatch)
    out = sufficient_test(ScaleContext(model, unit_kernel))
    assert staged == ["right"]
    assert out.evidence[-1][0].startswith("v at stage point 257")


# ---------------------------------------------- closed stage rules, K'(0) < 0

_LAPLACE = "Laplace slope of log v_n in x_n (stages diverge iff > 0)"
_SHORTCUT = "v(left) with boundary shift 0 divergence exponent (divergent iff >= 1)"


@pytest.mark.parametrize("model, boundary, exponent, slope", [
    # cc (K0 kappa - |r| log(1 + K0 kappa / |r|)) at K = e^-t: 2 (1 - log 2)
    # for kappa = sigma = 1, and 8 (200 - log 201) for kappa = 200, sigma = 0.5
    (CIRModel(1.0, 0.9, 1.0, 0.82), Boundary.BOTH, 1.8, "0x1.3a37a020b8c22p-1"),
    (CIRModel(1.0, 0.3, 1.0, 1.0), Boundary.RIGHT, 0.6, "0x1.3a37a020b8c22p-1"),
    (CIRModel(200.0, 2.0, 0.5, 1.0), Boundary.BOTH, 3200.0, "0x1.8564b53816570p+10"),
])
def test_sufficient_evidence_on_the_staged_pin_models_is_closed_form(model, boundary, exponent,
                                                                       slope, sloped_kernel):
    # the models of the staged pins above: 0 by its exponent under the
    # boundary shift, and +inf by CIRModel.stage_rule, with no stage
    out = sufficient_test(ScaleContext(model, sloped_kernel))
    assert (out.boundary, out.verdict) == (boundary, Verdict.NO_EXIT_AS)
    assert out.evidence == ((_SHORTCUT, exponent, 1.0), (_LAPLACE, float.fromhex(slope), 0.0))


_LOG_POS = st.floats(-1.5, 1.5).map(lambda e: 10.0**e)


@st.composite
def _sloped_built_ins(draw):
    # a CIR or Jacobi model under a one- or two-rate sum of exponentials (K'(0)
    # < 0), with the sides its family's sufficient verdicts certify: CIR's 0
    # iff 2 kappa theta - K0 sigma^2 >= 0 and +inf always, each Jacobi end iff
    # its own gap is >= 0; gaps within 1e-9 of 0, relative, are redrawn
    n = draw(st.sampled_from([1, 2]))
    kernel = SumOfExponentialsKernel(draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n)),
                                     draw(st.lists(_LOG_POS, min_size=n, max_size=n)))
    k0 = kernel.k0_kprime0()[0]
    if draw(st.booleans()):
        model = CIRModel(draw(_LOG_POS), draw(_LOG_POS), draw(_LOG_POS), draw(_LOG_POS))
        terms = [(2.0 * model.kappa * model.theta, k0 * model.sigma**2)]
    else:
        a, width = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.2, 5.0))
        inside = st.floats(0.02, 0.98).map(lambda f: a + width * f)
        model = JacobiModel(a, a + width, draw(_LOG_POS), draw(inside), draw(_LOG_POS),
                            draw(inside))
        var = k0 * model.sigma**2 * width
        terms = [(2.0 * model.kappa * (model.theta - a), var),
                 (2.0 * model.kappa * (model.b - model.theta), var)]
    assume(all(abs(u - w) >= 1e-9 * (u + w) for u, w in terms))
    holds = {"right"} if isinstance(model, CIRModel) else set()
    for verdict in family_test(model, kernel):
        if verdict.theorem.endswith("-sufficient"):
            holds.update(_sides(verdict))
    return model, kernel, holds


@settings(max_examples=60)
@given(case=_sloped_built_ins())
@example(case=(CIRModel(1e-6, 0.1, 1e-3, 1.0), SumOfExponentialsKernel([1.0], [1.0]), {"right"}))
def test_sloped_built_in_sufficient_sides_are_the_family_verdicts(case):
    # at K'(0) < 0 both families are decided in closed form.  The example
    # read Both Inconclusive after 11 s of stages that grew from 8.0 to 9.6
    # and stayed below DIVERGENCE_CAP
    model, kernel, holds = case
    out = sufficient_test(ScaleContext(model, kernel))
    got = set(_sides(out)) if out.verdict == Verdict.NO_EXIT_AS else set()
    assert got == holds, out
    assert out.verdict == Verdict.NO_EXIT_AS or (out.boundary, holds) == (Boundary.BOTH, set())


@settings(max_examples=30)
@given(case=_sloped_built_ins())
def test_sloped_built_ins_sweep_nothing_in_sufficient_test(case):
    model, kernel, _ = case
    with pytest.MonkeyPatch.context() as mp:
        staged, legs = _count_stage_calls(mp)
        sufficient_test(ScaleContext(model, kernel))
    assert (staged, legs) == ([], [])


def test_a_custom_clone_still_sweeps_its_stages(monkeypatch, sloped_kernel):
    # no closed rule: the clone of the first staged pin model sweeps its
    # left shortcut and then the eight stages toward +inf, and agrees
    model = CIRModel(1.0, 0.9, 1.0, 0.82)
    staged, legs = _count_stage_calls(monkeypatch)
    out = sufficient_test(ScaleContext(_clone(model), sloped_kernel))
    assert (staged, legs) == (["right"], [1, 8])
    assert (out.boundary, out.verdict) == (Boundary.BOTH, Verdict.NO_EXIT_AS)


@pytest.mark.parametrize("kappa, theta, sigma, rate", [(1.0, 0.5, 1.0, 1.0), (2.0, 0.3, 0.7, 0.5),
                                                        (200.0, 2.0, 0.5, 1.0)])
def test_swept_stage_slopes_approach_the_laplace_slope(kappa, theta, sigma, rate):
    # log v_n at the stages x_n = c + 2^n, each under the shift -x_n, grows
    # against x_n at CIRModel.stage_rule's slope up to O(log x_n / x_n): the
    # last two stages with a finite log v (x = 129 and 257) are within 5%
    model = CIRModel(kappa, theta, sigma, 1.0)
    ctx = ScaleContext(model, SumOfExponentialsKernel([1.0], [rate]))
    points = ctx._approach("right", 8, "n_stages")
    swept = ctx._stabilized_legs([(-x, [x]) for x in points], "log_v")
    logs = [(x, float(out[0].log_v[0])) for x, out in zip(points, swept)
            if not isinstance(out, NumericError) and math.isfinite(out[0].log_v[0])]
    (x1, log1), (x2, log2) = logs[-2:]
    kind, [(name, slope, bound)] = model.stage_rule("right", ctx.k0, ctx._ratio)
    assert (kind, name, bound) == ("divergent", _LAPLACE, 0.0) and slope > 0.0
    assert (log2 - log1) / (x2 - x1) == pytest.approx(slope, rel=0.05)


# ------------------------------------------------------- hypothesis gating


def test_strong_verdicts_downgraded_without_hypotheses():
    wild = UserKernel(lambda t: np.exp(-t), k0=1.0, kprime0=-1.0, completely_monotone=False)
    ctx = ScaleContext(CIRModel(1.0, 1.0, 1.0, 0.5), wild)
    out = sufficient_test(ctx)
    assert out.verdict == Verdict.INCONCLUSIVE
    assert "hypotheses_unverified" in out.assumptions_checked


def test_passed_resolvent_report_unlocks_strong_verdicts():
    wild = UserKernel(
        lambda t: np.exp(-t), k0=1.0, kprime0=-1.0, deriv=lambda t: -np.exp(-t)
    )
    report = check_hypotheses(solve_resolvent(wild, dt=1e-3, horizon=1.0))
    assert report.passed
    ctx = ScaleContext(CIRModel(1.0, 1.0, 1.0, 0.5), wild)
    out = sufficient_test(ctx, hypotheses=report)
    assert out.verdict == Verdict.NO_EXIT_AS
    assert "resolvent_check_passed" in out.assumptions_checked


def test_necessary_holds_is_not_gated():
    wild = UserKernel(lambda t: np.exp(-t), k0=1.0, kprime0=-1.0)
    ctx = ScaleContext(CIRModel(1.0, 1.0, 1.0, 0.5), wild)
    out = necessary_test(ctx)
    assert out.verdict == Verdict.NECESSARY_HOLDS


# ------------------------------------------------ cross-test consistency


def test_family_no_exit_never_meets_necessary_exit(rng):
    # sufficient and necessary conditions can never contradict each other
    kernels = [ConstantKernel(1.0), SumOfExponentialsKernel([1.0], [1.0])]
    for _ in range(20):
        kappa = rng.uniform(0.1, 3.0)
        theta = rng.uniform(0.05, 2.0)
        sigma = rng.uniform(0.2, 2.0)
        x0 = rng.uniform(0.01, 2.0)
        kernel = kernels[int(rng.integers(0, 2))]
        model = CIRModel(kappa, theta, sigma, x0)
        vs = family_test(model, kernel)
        no_exit_left = any(
            v.verdict == Verdict.NO_EXIT_AS and v.boundary in (Boundary.LEFT, Boundary.BOTH)
            for v in vs
        )
        nec = necessary_test(ScaleContext(model, kernel))
        exits_left = (
            nec.verdict == Verdict.EXITS_WITH_POSITIVE_PROB and nec.boundary == Boundary.LEFT
        )
        assert not (no_exit_left and exits_left)


def test_constant_kernel_cir_iff_matches_limits(rng, unit_kernel):
    # the closed-form iff agrees with the v-limit classification
    for _ in range(20):
        kappa = rng.uniform(0.1, 3.0)
        theta = rng.uniform(0.05, 1.5)
        sigma = rng.uniform(0.3, 2.0)
        model = CIRModel(kappa, theta, sigma, max(0.1, theta))
        cond = 2.0 * kappa * theta >= sigma**2
        lim = ScaleContext(model, unit_kernel).boundary_limit("left", target="v")
        assert (lim.kind == "divergent") == cond


def test_verdict_dataclass_shape():
    v = BoundaryVerdict(Boundary.LEFT, Verdict.NO_EXIT_AS, "cir-sufficient", (("q", 1.0, 0.0),))
    assert v.boundary == Boundary.LEFT
    assert v.verdict == Verdict.NO_EXIT_AS
    assert v.evidence[0] == ("q", 1.0, 0.0)
    assert v.assumptions_checked == ()


# ------------------------------------------------------------ kernel study


def test_study_truncation_threshold_directions():
    model = CIRModel(1.0, 0.25, 1.0, 0.2)
    sweep = [10.0, 100.0, 1000.0, 10000.0]
    up = fractional_condition_study(model, 0.4, sweep, scheme="truncation")
    thr_up = [row["necessary_threshold"] for row in up]
    assert all(b > a for a, b in zip(thr_up, thr_up[1:]))
    down = fractional_condition_study(model, 0.6, sweep, scheme="truncation")
    thr_down = [row["necessary_threshold"] for row in down]
    assert all(b < a for a, b in zip(thr_down, thr_down[1:]))
    assert "diverges" in up[0]["regime"] and "vanishes" in down[0]["regime"]


def test_study_rows_carry_kernel_scalars():
    rows = fractional_condition_study(CIRModel(1.0, 1.0, 1.0, 0.5), 0.5, [1.0, 10.0])
    for row, T in zip(rows, [1.0, 10.0]):
        k = TruncatedFractionalKernel(0.5, T)
        k0, kp0 = k.k0_kprime0()
        assert row["sweep"] == T
        assert row["k0"] == pytest.approx(k0, rel=1e-12)
        assert row["kprime0"] == pytest.approx(kp0, rel=1e-12)
        want_thr = (1.0 * k0**3 / 2.0 - 1.0 * 1.0 * k0**2) / abs(kp0)
        assert row["necessary_threshold"] == pytest.approx(want_thr, rel=1e-12)
        assert row["sufficient_gap"] == pytest.approx(2.0 - k0, rel=1e-12)


def test_study_geometric_bb2_always_diverges():
    rows = fractional_condition_study(
        CIRModel(1.0, 0.25, 1.0, 0.2), 0.7, [2, 3, 4, 5], scheme="geometric_bb2", q=2
    )
    thr = [row["necessary_threshold"] for row in rows]
    assert all(b > a for a, b in zip(thr, thr[1:]))
    assert "every alpha" in rows[0]["regime"]


def test_study_and_family_share_the_cir_threshold():
    # one formula for both; two spellings of it differed in the last bit
    model = CIRModel(1.0, 0.25, 1.0, 0.2)
    for alpha, T in [(0.6, 10.0), (0.6, 100.0), (0.4, 1000.0)]:
        row = fractional_condition_study(model, alpha, [T])[0]
        fam = family_test(model, TruncatedFractionalKernel(alpha, T))
        nec = [v for v in fam if v.theorem == "cir-necessary"][0]
        assert nec.evidence[0][2] == row["necessary_threshold"]


def test_nonfinite_kernel_scalars_are_rejected(cir_111):
    # K(0) = inf made K'(0)/K(0) nan and let a strong verdict through
    with np.errstate(over="ignore"):
        huge = SumOfExponentialsKernel([1e308, 1e308], [1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            ScaleContext(cir_111, huge)
        with pytest.raises(ValueError, match="finite"):
            family_test(cir_111, huge)


def test_study_requires_cir(unit_kernel):
    with pytest.raises(PreconditionError):
        fractional_condition_study(
            JacobiModel(0.0, 1.0, 1.0, 0.5, 1.0, 0.5), 0.5, [1.0]
        )


def test_study_rejects_an_unknown_scheme_and_an_empty_sweep(cir_111):
    with pytest.raises(ValueError, match="^scheme must be one of"):
        fractional_condition_study(cir_111, 0.4, [10.0], scheme="bogus")
    with pytest.raises(ValueError, match="^sweep must be nonempty"):
        fractional_condition_study(cir_111, 0.4, [])
    with pytest.raises(ValueError, match="^sweep entries must be finite"):
        fractional_condition_study(cir_111, 0.4, ["10"])


@pytest.mark.parametrize("alpha", ["0.3", None, 0.0, 1.0, math.nan])
def test_study_checks_alpha_before_reading_the_regime(cir_111, alpha):
    # '0.3' and None raised TypeError from the regime's comparison
    with pytest.raises(ValueError, match="^alpha must be finite and > 0.0 and < 1.0"):
        fractional_condition_study(cir_111, alpha, [10.0])


_CIR_CTX = ScaleContext(CIRModel(1.0, 1.0, 1.0, 1.0), ConstantKernel(1.0))
_INTEGER_PARAMETERS = {
    "n_paths": lambda n: SimConfig(dt=0.01, horizon=1.0, n_paths=n),
    "seed": lambda n: SimConfig(dt=0.01, horizon=1.0, n_paths=10, seed=n),
    "n_intervals": geometric_nodes,
    "q": lambda n: QuadratureScheme(0.5, (0.0, 1.0), q=n),
    "n_stages": lambda n: sufficient_test(_CIR_CTX, n_stages=n),
    "steps": lambda n: _CIR_CTX.boundary_limit("left", method="sample", steps=n),
    "n_terms": lambda n: _CIR_CTX.u_series(1.5, n_terms=n),
    # floats offset so that 4.0 is a valid panel cap; other values as they are
    "max_panels": lambda n: ScaleContext(_CIR_CTX.model, _CIR_CTX.kernel,
                                         max_panels=60 + n if isinstance(n, float) else n),
}


@pytest.mark.parametrize("name", list(_INTEGER_PARAMETERS))
@pytest.mark.parametrize("bad", [math.inf, math.nan, 4.5, None, "3", [2], 1 + 0j])
def test_integer_parameters_reject_nonintegral_values(name, bad):
    # inf overflowed int() and nan or 4.5 slipped through to a TypeError or
    # a truncation; None, lists and complex numbers raised TypeError, and
    # strings float's own ValueError or a TypeError from the range test.
    # An integral float stays accepted
    with pytest.raises(ValueError, match=f"^{name} must"):
        _INTEGER_PARAMETERS[name](bad)
    _INTEGER_PARAMETERS[name](4.0)


def test_integral_float_counts_are_used_as_ints():
    config = SimConfig(dt=0.01, horizon=1.0, n_paths=4.0, seed=2.0)
    assert (type(config.n_paths), type(config.seed)) == (int, int)
    assert type(QuadratureScheme(0.5, (0.0, 1.0), q=4.0).q) is int
    assert type(ScaleContext(_CIR_CTX.model, _CIR_CTX.kernel, max_panels=64.0).max_panels) is int
    assert _CIR_CTX.u_series(1.5, n_terms=4.0) == _CIR_CTX.u_series(1.5, n_terms=4)


def test_approach_points_must_stay_floats_inside_the_interval(unit_kernel):
    # from c = 0.5, 1 - 2^-(n+1) rounds onto 1.0 past n = 52: a sampled limit
    # read nan there as finite, and the staged test raised from v; toward
    # +inf, c + 2^n overflows from n = 1024
    ctx = ScaleContext(JacobiModel(0.0, 1.0, 1.0, 0.5, 3.0, 0.5), unit_kernel)
    res = ctx.boundary_limit("right", method="sample", steps=52)
    assert res.kind == "finite" and len(res.evidence["points"]) == 52
    assert res.value == pytest.approx(ctx.boundary_limit("right").value, rel=1e-12)
    with pytest.raises(ValueError, match="^steps must be at most 52 toward the right boundary"):
        ctx.boundary_limit("right", method="sample", steps=60)
    with pytest.raises(ValueError, match="^n_stages must be at most 52 toward the right boundary"):
        sufficient_test(ctx, n_stages=60)
    with pytest.raises(ValueError, match="^n_stages must be at most 1023 toward the right"):
        sufficient_test(_CIR_CTX, n_stages=1100)


class _Scalars:
    # a kernel reporting the given K(0) and K'(0)
    def __init__(self, k0, kp0):
        self.scalars = (k0, kp0)

    def k0_kprime0(self):
        return self.scalars


def _jacobi(**kw):
    return JacobiModel(**{"a": 0.0, "b": 2.0, "kappa": 1.0, "theta": 1.0, "sigma": 1.0,
                          "x0": 1.0, **kw})


def _keeps_nothing(call):
    # a site that keeps no copy of the value
    def site(value):
        call(value)

    return site


_GRID = solve_resolvent(ConstantKernel(1.0), 0.5, 2.0)
_NO_HITS = SimpleNamespace(hit_fraction_left=0.0, hit_fraction_right=0.0, hit_fraction=0.0)

# every scalar real parameter: site -> (name, call with the value, which
# returns the value as the site kept it or None if it keeps none, a valid
# value, a finite value outside the domain or None if there is none)
_REAL_PARAMETERS = {
    "CIRModel.kappa": ("kappa", lambda v: CIRModel(v, 1.0, 1.0, 1.0).kappa, 2, 0.0),
    "CIRModel.theta": ("theta", lambda v: CIRModel(1.0, v, 1.0, 1.0).theta, 2, -1.0),
    "CIRModel.sigma": ("sigma", lambda v: CIRModel(1.0, 1.0, v, 1.0).sigma, 2, 0.0),
    "CIRModel.x0": ("x0", lambda v: CIRModel(1.0, 1.0, 1.0, v).x0, 2, 0.0),
    "JacobiModel.a": ("a", lambda v: _jacobi(a=v).a, 0, None),
    "JacobiModel.b": ("b", lambda v: _jacobi(b=v).b, 3, 0.0),
    "JacobiModel.kappa": ("kappa", lambda v: _jacobi(kappa=v).kappa, 2, -1.0),
    "JacobiModel.theta": ("theta", lambda v: _jacobi(theta=v).theta, 1, 2.0),
    "JacobiModel.sigma": ("sigma", lambda v: _jacobi(sigma=v).sigma, 2, 0.0),
    "JacobiModel.x0": ("x0", lambda v: _jacobi(x0=v).x0, 1, 0.0),
    "PowerModel.alpha": ("alpha", lambda v: PowerModel(v, 0.5, 1.0, 1.0).alpha, 2, 1.0),
    "PowerModel.delta": ("delta", lambda v: PowerModel(1.5, v, 1.0, 1.0).delta, 0, 1.0),
    "PowerModel.sigma": ("sigma", lambda v: PowerModel(1.5, 0.5, v, 1.0).sigma, 2, 0.0),
    "PowerModel.x0": ("x0", lambda v: PowerModel(1.5, 0.5, 1.0, v).x0, -1, None),
    "CustomModel.x0": ("x0", lambda v: CustomModel(np.negative, np.ones_like, (0.0, math.inf),
                                                   v).x0, 1, -1.0),
    "ScaleContext.beta": ("beta", lambda v: _CIR_CTX.with_shifts(v, 0.0).beta, 1, None),
    "ScaleContext.gamma": ("gamma", lambda v: _CIR_CTX.with_shifts(0.0, v).gamma, 1, None),
    "ScaleContext.quad_tol": ("quad_tol", lambda v: ScaleContext(
        _CIR_CTX.model, _CIR_CTX.kernel, quad_tol=v).quad_tol, 1, 0.0),
    "ScaleContext.c": ("c", lambda v: _CIR_CTX.with_base(v).c, 0.5, 0.0),
    "kernel_scalars.K(0)": ("K(0)", lambda v: kernel_scalars(_Scalars(v, -1.0))[0], 2, 0.0),
    "kernel_scalars.K'(0)": ("K'(0)", lambda v: kernel_scalars(_Scalars(1.0, v))[1], 0, 0.5),
    "ConstantKernel.level": ("level", lambda v: ConstantKernel(v).level, 2, 0.0),
    "TruncatedFractionalKernel.alpha": (
        "alpha", lambda v: TruncatedFractionalKernel(v, 4.0).alpha, 0.5, 1.0),
    "TruncatedFractionalKernel.T": ("T", lambda v: TruncatedFractionalKernel(0.5, v).T, 4, 0.0),
    "UserKernel.k0": ("k0", lambda v: UserKernel(np.exp, v, -1.0).k0_kprime0()[0], 2.0, 0.0),
    "UserKernel.kprime0": (
        "kprime0", lambda v: UserKernel(np.exp, 1.0, v).k0_kprime0()[1], -1.0, None),
    "TruncationScheme.alpha": ("alpha", lambda v: TruncationScheme(v, 4.0).alpha, 0.5, 0.0),
    "TruncationScheme.T": ("T", lambda v: TruncationScheme(0.5, v).T, 4, -1.0),
    "QuadratureScheme.alpha": (
        "alpha", lambda v: QuadratureScheme(v, (0.0, 1.0)).alpha, 0.5, 1.0),
    "geometric_nodes.ratio": (
        "ratio", _keeps_nothing(lambda v: geometric_nodes(2, ratio=v)), 2, 1.0),
    "geometric_nodes.xi1": (
        "xi1", _keeps_nothing(lambda v: geometric_nodes(2, xi1=v)), 2, 0.0),
    "solve_resolvent.dt": (
        "dt", lambda v: solve_resolvent(ConstantKernel(1.0), v, 2.0).dt, 1, 0.0),
    "solve_resolvent.horizon": (
        "horizon", lambda v: solve_resolvent(ConstantKernel(1.0), 0.5, v).horizon, 2, -1.0),
    "check_hypotheses.tol": ("tol", lambda v: check_hypotheses(_GRID, tol=v).tol, 1, 0.0),
    "SimConfig.dt": ("dt", lambda v: SimConfig(dt=v, horizon=2.0, n_paths=1).dt, 1, 0.0),
    "SimConfig.horizon": (
        "horizon", lambda v: SimConfig(dt=0.5, horizon=v, n_paths=1).horizon, 2, 0.25),
    "SimConfig.hit_eps": (
        "hit_eps", lambda v: SimConfig(dt=0.5, horizon=1.0, n_paths=1, hit_eps=v).hit_eps, 1,
        0.0),
    "SimConfig.blowup_cap": ("blowup_cap", lambda v: SimConfig(
        dt=0.5, horizon=1.0, n_paths=1, blowup_cap=v).blowup_cap, 100, 0.0),
    "verdict_crosscheck.leak_tol": ("leak_tol", _keeps_nothing(
        lambda v: verdict_crosscheck([], _NO_HITS, leak_tol=v)), 0, 1.0),
    "verdict_crosscheck.floor_tol": ("floor_tol", _keeps_nothing(
        lambda v: verdict_crosscheck([], _NO_HITS, floor_tol=v)), 1, 0.0),
    "necessary_test.eps_shift": (
        "eps_shift", _keeps_nothing(lambda v: necessary_test(_CIR_CTX, eps_shift=v)), 1e-6, 0.0),
    "scheme_discrepancy.horizon": ("horizon", _keeps_nothing(lambda v: scheme_discrepancy(
        _CIR_CTX.model, ConstantKernel(1.0), [0.5], v, n_paths=1)), 1, -1.0),
}
# None is the default of these, not an invalid value
_NONE_IS_DEFAULT = ("ScaleContext.c", "SimConfig.hit_eps", "check_hypotheses.tol",
                    "necessary_test.eps_shift")
_REAL_REJECTS = [
    (site, bad) for site, (_, _, _, outside) in _REAL_PARAMETERS.items()
    for bad in [math.inf, -math.inf, math.nan, None, "1", 1 + 0j, [1.0], outside]
    if not (bad is None and (site in _NONE_IS_DEFAULT or bad is outside))
]


@pytest.mark.parametrize("site, bad", _REAL_REJECTS,
                         ids=[f"{site}-{bad!r}" for site, bad in _REAL_REJECTS])
def test_real_parameters_reject_nonfinite_nonreal_and_out_of_domain_values(site, bad):
    # one rule for every real parameter: inf reached verdicts (a CIR kappa of
    # inf certified NoExitAS), nan or strings slipped through some checks and
    # raised TypeError at others
    name = _REAL_PARAMETERS[site][0]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite"):
        _REAL_PARAMETERS[site][1](bad)


@pytest.mark.parametrize("site", list(_REAL_PARAMETERS))
def test_real_parameters_keep_valid_values_as_given(site):
    # ints stay ints, so they reach evidence and echoes as they did
    _, call, valid, _ = _REAL_PARAMETERS[site]
    kept = call(valid)
    assert kept is None or (kept == valid and type(kept) is type(valid))


def test_inputs_that_used_to_reach_results_are_rejected():
    with pytest.raises(ValueError, match="^kappa must be finite and > 0.0, got inf$"):
        CIRModel(math.inf, 1.0, 1.0, 1.0)  # certified NoExitAS with gap inf
    with pytest.raises(ValueError, match="^x0 must be finite"):
        CIRModel(1.0, 1.0, 1.0, math.inf)  # accepted on (0, inf)
    with pytest.raises(ValueError, match="^quad_tol must be finite"):
        ScaleContext(_CIR_CTX.model, _CIR_CTX.kernel, quad_tol=math.inf)  # any rounds agreed
    with pytest.raises(ValueError, match="^hit_eps must be finite"):
        SimConfig(dt=0.01, horizon=1.0, n_paths=1, hit_eps=math.inf)  # every path hit at once
    with pytest.raises(ValueError, match="^sigma must be finite and > 0.0, got '1'$"):
        CIRModel(1.0, 1.0, "1", 1.0)  # a TypeError that named nothing
    with pytest.raises(ValueError, match="^horizon must be finite"):
        scheme_discrepancy(_CIR_CTX.model, ConstantKernel(1.0), [0.5], -1.0)  # returned a row
    with pytest.raises(ValueError, match="^seed must be an integer"):
        scheme_discrepancy(_CIR_CTX.model, ConstantKernel(1.0), [0.5], 1.0, seed=1.5)  # ran


@pytest.mark.parametrize("bad", [math.inf, 4.5, None, "3", 1 + 0j])
def test_scheme_discrepancy_counts_are_checked(bad):
    run = lambda **kw: scheme_discrepancy(_CIR_CTX.model, ConstantKernel(1.0), [0.5], 1.0, **kw)
    with pytest.raises(ValueError, match="^n_paths must"):
        run(n_paths=bad)
    with pytest.raises(ValueError, match="^seed must"):
        run(seed=bad)
    assert run(n_paths=2.0, seed=3.0) == run(n_paths=2, seed=3)


def test_custom_interval_ends_must_be_ordered_reals():
    # infinite ends are fine; nan or a non-real end is not
    assert CustomModel(np.negative, np.ones_like, (-math.inf, math.inf), 0.0).x0 == 0.0
    for ends in [(math.nan, 1.0), (0.0, "1"), (None, 1.0), (1.0, 0.0)]:
        with pytest.raises(ValueError, match="^interval must"):
            CustomModel(np.negative, np.ones_like, ends, 0.5)


# ------------------------------------------- closed limits under each shift


def _parent_read(shifted, which, target):
    # a limit as the verdicts read it off a shifted context: a built-in model's
    # closed rule under the context's own side shift, else boundary_limit
    if hasattr(shifted.model, "limit_rule"):
        shift = shifted.beta if which == "left" else shifted.gamma
        kind, ev = shifted.model.limit_rule(which, target, shifted.k0, shifted._ratio, shift)
        return scale.LimitResult(kind, None, "closed", ev)
    return shifted.boundary_limit(which, target)


def _parent_limit(ctx, which, target, shift):
    return _parent_read(dataclasses.replace(ctx, beta=shift, gamma=shift), which, target)


def _parent_limit_pair(ctx, beta, gamma, target, names):
    shifted = dataclasses.replace(ctx, beta=beta, gamma=gamma)
    lims = [_parent_read(shifted, which, target) for which in ("left", "right")]
    return lims, [feller._limit_triple(name, lim) for name, lim in zip(names, lims)]


def _outcomes(ctx, n_stages):
    # repr of each generic test's verdict, or its error's type and text
    tests = [(necessary_test, {}), (sufficient_test, {"n_stages": n_stages}),
             (sup_inf_test, {}), (bounded_interval_test, {})]
    out = []
    for test, kw in tests:
        try:
            out.append(repr(test(ctx, **kw)))
        except ValueError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def _assert_matches_rebuilt_path(ctx, shift, n_stages):
    # _limit and the four generic tests against the path that rebuilt every
    # shifted context with dataclasses.replace and read the closed rule off it
    for which in ("left", "right"):
        for target in ("v", "p"):
            got = feller._limit(ctx, which, target, shift)
            assert repr(got) == repr(_parent_limit(ctx, which, target, shift)), (which, target)
    now = _outcomes(ctx, n_stages)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feller, "_limit", _parent_limit)
        mp.setattr(feller, "_limit_pair", _parent_limit_pair)
        assert now == _outcomes(ctx, n_stages)


_SHIFT = st.floats(-10.0, 10.0)


@st.composite
def _built_in_cases(draw):
    # a CIR, Jacobi or power context under a constant, one-rate or two-rate
    # kernel, with drawn shifts, a drawn shift for _limit and a stage count
    # (2 or 3 where the power family stages, at K'(0) < 0)
    n = draw(st.sampled_from([0, 1, 2]))
    if n:
        kernel = SumOfExponentialsKernel(
            draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n)),
            draw(st.lists(_LOG_POS, min_size=n, max_size=n)))
    else:
        kernel = ConstantKernel(draw(_LOG_POS))
    family = draw(st.sampled_from(["cir", "jacobi", "power"]))
    if family == "cir":
        model = CIRModel(draw(_LOG_POS), draw(_LOG_POS), draw(_LOG_POS), draw(_LOG_POS))
    elif family == "jacobi":
        a, width = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.2, 5.0))
        inside = st.floats(0.02, 0.98).map(lambda f: a + width * f)
        model = JacobiModel(a, a + width, draw(_LOG_POS), draw(inside), draw(_LOG_POS),
                            draw(inside))
    else:
        model = PowerModel(draw(st.floats(1.05, 2.5)), draw(st.floats(0.0, 0.95)),
                           draw(_LOG_POS), draw(st.sampled_from([-1.0, 1.0])) * draw(_LOG_POS))
    ctx = ScaleContext(model, kernel, beta=draw(_SHIFT), gamma=draw(_SHIFT))
    return ctx, draw(_SHIFT), draw(st.integers(2, 3 if family == "power" and n else 8))


@settings(max_examples=40)
@given(case=_built_in_cases())
def test_closed_limits_under_a_shift_match_rebuilt_contexts(case):
    # built-in verdicts read each side's closed rule under its shift off the
    # unshifted context; limits, verdicts and evidence are the rebuilt path's
    _assert_matches_rebuilt_path(*case)


def test_a_custom_clone_reads_its_limits_as_rebuilt_contexts_did(sloped_kernel):
    # no closed rule: a custom model's limits sweep a context shifted by the shift
    model = _clone(JacobiModel(0.0, 1.0, 1.0, 0.4, 1.5, 0.6))
    _assert_matches_rebuilt_path(ScaleContext(model, sloped_kernel, beta=0.3, gamma=-0.2),
                                 -0.5, 3)


@pytest.mark.parametrize("model, kernel", [
    (CIRModel(1.0, 0.5, 1.0, 0.7), ConstantKernel(1.0)),
    (CIRModel(2.0, 0.3, 0.7, 1.2), SumOfExponentialsKernel([1.0], [1.0])),
    (JacobiModel(0.0, 1.0, 1.0, 0.4, 1.5, 0.6), ConstantKernel(2.0)),
    (JacobiModel(-1.0, 2.0, 0.5, 0.2, 0.8, 0.1), SumOfExponentialsKernel([0.5, 1.0], [0.3, 3.0])),
    (PowerModel(1.5, 0.5, 1.0, 1.0), ConstantKernel(1.0)),
])
def test_built_in_verdicts_rebuild_no_context(monkeypatch, model, kernel):
    # no ScaleContext is built and K(0), K'(0) are not read again: closed
    # limits take their shift, so no shifted context is made
    ctx = ScaleContext(model, kernel)
    counts = {"__post_init__": 0, "k0_kprime0": 0}
    post_init, scalars = ScaleContext.__post_init__, type(kernel).k0_kprime0

    def counting_post_init(self):
        counts["__post_init__"] += 1
        post_init(self)

    def counting_scalars(self):
        counts["k0_kprime0"] += 1
        return scalars(self)

    monkeypatch.setattr(ScaleContext, "__post_init__", counting_post_init)
    monkeypatch.setattr(type(kernel), "k0_kprime0", counting_scalars)
    outcomes = _outcomes(ctx, 8)
    ctx.with_shifts(0.1, -0.2)  # nor does a shifted context, where one is made
    assert counts == {"__post_init__": 0, "k0_kprime0": 0}
    assert sum(out.startswith("BoundaryVerdict") for out in outcomes) >= 3
    ScaleContext(model, kernel)  # the counters count
    assert counts == {"__post_init__": 1, "k0_kprime0": 1}


_RICH_CTX = ScaleContext(JacobiModel(-1.0, 2.0, 0.5, 0.2, 0.8, 0.1),
                         SumOfExponentialsKernel([0.5, 1.0], [0.3, 3.0]), c=0.3, beta=1.0,
                         gamma=-2.0, quad_tol=1e-8, max_panels=128.0)


@pytest.mark.parametrize("ctx", [_CIR_CTX, _RICH_CTX], ids=["cir", "jacobi"])
@pytest.mark.parametrize("beta, gamma", [(0.2, -0.1), (0, 3), (True, -0.0),
                                         (np.float64(1.5), 2**60)])
def test_with_shifts_equals_a_rebuilt_context(ctx, beta, gamma):
    # field for field, types included, with the same hash and kernel scalars;
    # the context shifted from keeps its own
    before = dict(vars(ctx))
    fast, rebuilt = ctx.with_shifts(beta, gamma), dataclasses.replace(ctx, beta=beta, gamma=gamma)
    assert fast == rebuilt and hash(fast) == hash(rebuilt)
    assert (fast.k0, fast.kprime0) == (rebuilt.k0, rebuilt.kprime0)
    assert {k: (type(v), v) for k, v in vars(fast).items()} == {
        k: (type(v), v) for k, v in vars(rebuilt).items()}
    assert vars(ctx) == before


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1", None])
def test_with_shifts_rejects_a_bad_shift_as_a_rebuild_does(bad):
    for kw in ({"beta": bad, "gamma": 0.0}, {"beta": 0.0, "gamma": bad},
               {"beta": bad, "gamma": bad}):
        with pytest.raises(ValueError) as fast:
            _RICH_CTX.with_shifts(**kw)
        with pytest.raises(ValueError) as rebuilt:
            dataclasses.replace(_RICH_CTX, **kw)
        assert str(fast.value) == str(rebuilt.value)
        assert str(fast.value).startswith("beta must" if kw["beta"] is bad else "gamma must")


def _walked_approach(ctx, which, count, name):
    # the approach ladder built and checked point by point
    l, r = ctx.model.interval
    boundary = l if which == "left" else r
    inward = 1.0 if which == "left" else -1.0
    points = []
    for n in range(1, count + 1):
        if math.isfinite(boundary):
            x = boundary + inward * (abs(ctx.c - boundary) * 0.5**n)
        else:
            x = ctx.c - inward * (2.0**n if n < 1024 else math.inf)
        if not l < x < r:
            raise ValueError(f"{name} must be at most {n - 1} toward the {which} boundary: "
                             f"approach point {n} is not a float inside ({l}, {r})")
        points.append(x)
    return points


@pytest.mark.parametrize("ctx", [_CIR_CTX, _RICH_CTX, ScaleContext(
    PowerModel(1.5, 0.5, 1.0, -3.0), ConstantKernel(1.0))], ids=["cir", "jacobi", "power"])
def test_stage_count_check_matches_the_walked_ladder(ctx):
    # only the farthest point is checked, and the same counts pass or fail
    # with the same text as when every point was
    for which in ("left", "right"):
        for count in [*range(1, 80), *range(1015, 1090), 5000]:
            try:
                want = _walked_approach(ctx, which, count, "n_stages")
            except ValueError as exc:
                want = str(exc)
                with pytest.raises(ValueError) as got:
                    ctx._approach(which, count, "n_stages", ladder=False)
                assert str(got.value) == want
            else:
                assert ctx._approach(which, count, "n_stages", ladder=False) is None
            try:
                assert ctx._approach(which, count, "n_stages") == want
            except ValueError as exc:
                assert str(exc) == want
