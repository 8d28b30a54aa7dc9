import json
import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from volterra_feller import fracapprox
from volterra_feller import (
    QuadratureScheme,
    SumOfExponentialsKernel,
    TruncatedFractionalKernel,
    TruncationScheme,
    approximation_error,
    gaussian_quadrature_kernel,
    geometric_nodes,
    truncation_kernel,
)
from volterra_feller.errors import NumericError


def test_scheme_validation():
    with pytest.raises(ValueError, match="alpha"):
        TruncationScheme(1.0, 10.0)
    with pytest.raises(ValueError, match="T"):
        TruncationScheme(0.5, 0.0)
    with pytest.raises(ValueError, match="alpha"):
        QuadratureScheme(0.0, (0.0, 1.0))
    with pytest.raises(ValueError, match="two breakpoints"):
        QuadratureScheme(0.5, (1.0,))
    with pytest.raises(ValueError, match="increasing"):
        QuadratureScheme(0.5, (0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="nonnegative"):
        QuadratureScheme(0.5, (-1.0, 1.0))
    with pytest.raises(ValueError, match="q"):
        QuadratureScheme(0.5, (0.0, 1.0), q=0)
    with pytest.raises(ValueError, match="weight"):
        QuadratureScheme(0.5, (0.0, 1.0), weight="flat")
    with pytest.raises(ValueError, match="start at 0"):
        QuadratureScheme(0.5, (0.5, 1.0), weight="geometric_bb2")


@pytest.mark.parametrize("nodes", [("0", "1"), (0.0, math.inf), (0.0, math.nan), (0.0, None)])
def test_breakpoints_must_be_finite_reals(nodes):
    # numeric strings were converted: ("0", "1") gave nodes (0.0, 1.0)
    with pytest.raises(ValueError, match="^nodes entries must be finite"):
        QuadratureScheme(0.5, nodes)


def test_schemes_build_their_own_kernels():
    assert TruncationScheme(0.4, 25.0).kernel() == TruncatedFractionalKernel(0.4, 25.0)
    sch = QuadratureScheme(0.5, geometric_nodes(2), q=2)
    assert sch.kernel() == gaussian_quadrature_kernel(sch)


def test_geometric_nodes_standard_ladder():
    assert geometric_nodes(4) == pytest.approx((0.0, 1.0, 6.4, 40.96, 262.144), rel=1e-14)
    assert geometric_nodes(2, ratio=10.0, xi1=0.5) == (0.0, 0.5, 5.0)
    with pytest.raises(ValueError):
        geometric_nodes(0)
    with pytest.raises(ValueError):
        geometric_nodes(3, ratio=1.0)
    with pytest.raises(ValueError):
        geometric_nodes(3, xi1=0.0)


def test_truncation_kernel_overloads():
    direct = truncation_kernel(0.4, 25.0)
    via_scheme = truncation_kernel(TruncationScheme(0.4, 25.0))
    assert isinstance(direct, TruncatedFractionalKernel)
    assert direct.alpha == via_scheme.alpha and direct.T == via_scheme.T
    with pytest.raises(ValueError, match="T is required"):
        truncation_kernel(0.4)


def test_truncation_kernel_passes_its_arguments_unconverted():
    # float() turned numeric strings into a kernel the class itself rejects
    with pytest.raises(ValueError, match="^alpha must be finite"):
        truncation_kernel("0.4", "25")
    assert type(truncation_kernel(0.4, 25).T) is int  # as TruncatedFractionalKernel keeps it


def test_single_interval_single_node_closed_form():
    # alpha = 1/2 on [0, 1]: mass 2/pi, node at the weighted mean 1/3
    k = gaussian_quadrature_kernel(QuadratureScheme(0.5, (0.0, 1.0), q=1))
    assert isinstance(k, SumOfExponentialsKernel)
    assert k.weights[0] == pytest.approx(2.0 / math.pi, abs=1e-12)
    assert k.rates[0] == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_quadrature_preserves_first_two_moments(alpha, q):
    # total mass and first moment of the fractional weight on [0, xi_N]
    sch = QuadratureScheme(alpha, geometric_nodes(4), q=q)
    k = gaussian_quadrature_kernel(sch)
    assert len(k.weights) == 4 * q
    xi_n = sch.nodes[-1]
    want_m = xi_n ** (1.0 - alpha) / (math.gamma(alpha) * math.gamma(2.0 - alpha))
    want_mx = xi_n ** (2.0 - alpha) / (
        (2.0 - alpha) * math.gamma(alpha) * math.gamma(1.0 - alpha)
    )
    got_m = sum(k.weights)
    got_mx = sum(w * r for w, r in zip(k.weights, k.rates))
    assert got_m == pytest.approx(want_m, rel=1e-12)
    assert got_mx == pytest.approx(want_mx, rel=1e-12)


def test_nodes_stay_inside_their_intervals():
    sch = QuadratureScheme(0.25, geometric_nodes(5), q=4)
    k = gaussian_quadrature_kernel(sch)
    rates = sorted(k.rates)
    for n in range(sch.n_intervals):
        lo, hi = sch.nodes[n], sch.nodes[n + 1]
        inside = [r for r in rates if lo <= r <= hi]
        assert len(inside) == 4


def test_bb2_weight_builds_a_cm_kernel():
    sch = QuadratureScheme(0.5, geometric_nodes(3), q=2, weight="geometric_bb2")
    k = gaussian_quadrature_kernel(sch)
    assert k.completely_monotone
    assert all(w > 0 for w in k.weights)
    # flat weight on the outer intervals pumps up the mass relative to the
    # fractional weight, so K(0) exceeds the all-fractional variant
    k_frac = gaussian_quadrature_kernel(QuadratureScheme(0.5, geometric_nodes(3), q=2))
    assert sum(k.weights) > sum(k_frac.weights)


def test_gaussian_quadrature_kernel_requires_scheme():
    with pytest.raises(TypeError):
        gaussian_quadrature_kernel(TruncationScheme(0.5, 10.0))


def _closed_moment(alpha, lo, hi, k, fractional):
    # int_lo^hi (x/hi)**k w(x) dx in 50-digit decimal, w = x**(-alpha) sin(pi alpha)/pi or 1
    with localcontext() as ctx:
        ctx.prec = 50
        p = Decimal(k + 1) - (Decimal(alpha) if fractional else 0)
        tail = (p * (Decimal(lo).ln() - Decimal(hi).ln())).exp() if lo > 0.0 else Decimal(0)
        scale = (Decimal(hi) ** (1 - Decimal(alpha)) * Decimal(math.sin(math.pi * alpha) / math.pi)
                 if fractional else Decimal(hi))
        return float(scale * (1 - tail) / p)


def _moment_misses(scheme):
    # worst miss of each interval's rule on the moments j < 2q of its weight, relative
    # to mu_j + j mu_(j-1) (hi - lo)/hi: moving the nodes by a fraction e of the
    # interval's width moves mu_j by up to e times the second term
    k, q = gaussian_quadrature_kernel(scheme), scheme.q
    worst = 0.0
    for n, (lo, hi) in enumerate(zip(scheme.nodes, scheme.nodes[1:])):
        rates = np.array(k.rates[n * q:(n + 1) * q])
        masses = np.array(k.weights[n * q:(n + 1) * q])
        fractional = scheme.weight == "fractional" or n == 0
        want = [_closed_moment(scheme.alpha, lo, hi, j, fractional) for j in range(2 * q)]
        for j in range(2 * q):
            scale = want[j] + (j * want[j - 1] * (hi - lo) / hi if j else 0.0)
            worst = max(worst, abs(masses @ (rates / hi) ** j - want[j]) / scale)
    return worst


def test_tiny_first_interval_at_q12_builds_an_exact_rule():
    # q = 12 on a width of 1e-30: the Gauss-Jacobi rule is exact at any scale
    assert _moment_misses(QuadratureScheme(0.5, (0.0, 1e-30), q=12)) < 1e-13


@pytest.mark.parametrize("alpha, nodes, q, weight", [
    (0.6169114332191545, (1.0, 2.0, 2.0000078601633082), 12, "fractional"),
    (0.5, (0.0, 1.0, 1.0 + 1e-13), 12, "fractional"),
    (0.99999, (0.0, 1.0, 2.0), 2, "geometric_bb2"),
    (0.999999, (0.0, 1.0, 1e8), 12, "fractional"),
])
def test_narrow_intervals_and_alpha_near_1_build_exact_rules(alpha, nodes, q, weight):
    # a narrow interval's range and 1 - alpha must not be formed by cancellation
    assert _moment_misses(QuadratureScheme(alpha, nodes, q=q, weight=weight)) < 1e-12


def test_subnormal_interval_names_it_in_the_mass_error():
    # a flat interval of width 5e-324: its masses round to 0
    with pytest.raises(NumericError, match="Gauss mass is not a positive normal float") as exc:
        gaussian_quadrature_kernel(
            QuadratureScheme(0.5, (0.0, 5e-324, 1e-323), q=12, weight="geometric_bb2"))
    assert exc.value.details["interval"] == (5e-324, 1e-323)


def test_a_node_outside_its_interval_is_named_in_the_error(monkeypatch):
    # every rule's nodes moved past the right end of [0, 1]
    golub_welsch = fracapprox._golub_welsch

    def escaped(*args):
        nodes, masses = golub_welsch(*args)
        return nodes + 1.5, masses

    monkeypatch.setattr(fracapprox, "_golub_welsch", escaped)
    with pytest.raises(NumericError, match="Gauss node escaped its interval") as exc:
        gaussian_quadrature_kernel(QuadratureScheme(0.5, (0.0, 2.0, 4.0), q=3))
    assert exc.value.details["interval"] == (0.0, 2.0)
    assert exc.value.details["node"] > 2.0


def test_a_coarse_discretisation_raises_instead_of_returning_a_wrong_rule(monkeypatch):
    # with 3 Legendre points a panel, the discrete measure misses the weight's moments
    monkeypatch.setattr(fracapprox, "_PANEL_RULE", fracapprox._jacobi_rule(3, 0.0))
    with pytest.raises(NumericError, match="misses its closed-form moments") as exc:
        gaussian_quadrature_kernel(QuadratureScheme(0.9, (0.0, 1.0, 1e8), q=3))
    assert exc.value.details["interval"] == (1.0, 1e8)


@st.composite
def _schemes(draw):
    # interval ratios 1 + 10**e from 1 + 1e-6 to 1e300; the ladder starts at 0 or above it
    alpha = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    weight = draw(st.sampled_from(["fractional", "geometric_bb2"]))
    start = 0.0 if weight == "geometric_bb2" or draw(st.booleans()) else None
    x = 10.0 ** draw(st.floats(-300.0, 300.0))
    nodes = [x] if start is None else [start, x]
    for _ in range(draw(st.integers(1, 2))):
        x *= 1.0 + 10.0 ** draw(st.floats(-6.0, 300.0))
        nodes.append(x)
    nodes = [v for v in nodes if v < 1e305]  # a product may overflow
    assume(len(nodes) > 1)
    return QuadratureScheme(alpha, tuple(nodes), q=draw(st.integers(1, 32)), weight=weight)


@settings(max_examples=150)
@given(scheme=_schemes())
@example(scheme=QuadratureScheme(0.9, (0.0, 1.0, 1e8), q=3))
@example(scheme=QuadratureScheme(0.5, (1e-300, 1e300), q=12))
@example(scheme=QuadratureScheme(0.3, geometric_nodes(4), q=32))
@example(scheme=QuadratureScheme(0.3, geometric_nodes(4), q=32, weight="geometric_bb2"))
def test_every_rule_integrates_its_weights_moments_or_raises(scheme):
    # the examples: wide intervals, where one Legendre rule per interval misses the
    # moments (by 0.29 at hi/lo = 1e8, alpha 0.9, q 3; by 0.5% in K(0) at 1e600),
    # and 32 nodes an interval on the standard ladder under each weight
    try:
        worst = _moment_misses(scheme)
    except NumericError as exc:
        assert "interval" in exc.details
        return
    assert worst < 1e-12


_MPMATH_RULES = json.loads(
    (Path(__file__).parent / "golden" / "gauss_rules_mpmath.json").read_text())["rules"]


@pytest.mark.parametrize("case", _MPMATH_RULES,
                         ids=[f"{c['weight']}-{c['alpha']}-{c['intervals']}x{c['q']}"
                              for c in _MPMATH_RULES])
def test_rules_match_the_60_digit_moment_matrix_rules(case):
    scheme = QuadratureScheme(case["alpha"], geometric_nodes(case["intervals"]), q=case["q"],
                              weight=case["weight"])
    k = gaussian_quadrature_kernel(scheme)
    assert list(k.rates) == pytest.approx(case["rates"], rel=1e-12, abs=0.0)
    assert list(k.weights) == pytest.approx(case["weights"], rel=1e-12, abs=0.0)


# ------------------------------------------------------------- error report


def test_error_rows_and_exact_reference():
    rows = approximation_error(TruncationScheme(0.5, 100.0), [0.5, 1.0, 2.0])
    assert [r["t"] for r in rows] == [0.5, 1.0, 2.0]
    for r in rows:
        assert r["exact"] == pytest.approx(
            r["t"] ** (-0.5) / math.gamma(0.5), rel=1e-12
        )
        assert r["abs_error"] == pytest.approx(abs(r["approx"] - r["exact"]), abs=1e-300)
        assert r["rel_error"] == pytest.approx(r["abs_error"] / r["exact"], rel=1e-12)


def test_truncation_error_vanishes_at_fixed_lag():
    rels = [
        approximation_error(TruncationScheme(0.5, T), [0.01])[0]["rel_error"]
        for T in (10.0, 100.0, 1000.0)
    ]
    assert rels[0] > rels[1] > rels[2]
    assert rels[2] < 1e-4


def test_longer_ladder_reaches_shorter_lags():
    rel4 = approximation_error(
        QuadratureScheme(0.5, geometric_nodes(4), q=3), [1e-3]
    )[0]["rel_error"]
    rel8 = approximation_error(
        QuadratureScheme(0.5, geometric_nodes(8), q=3), [1e-3]
    )[0]["rel_error"]
    assert rel8 < 0.05 * rel4
    assert rel8 < 5e-3


def test_more_gauss_nodes_sharpen_moderate_lags():
    grid = [0.1, 1.0]
    rel_q1 = approximation_error(QuadratureScheme(0.5, geometric_nodes(4), q=1), grid)
    rel_q3 = approximation_error(QuadratureScheme(0.5, geometric_nodes(4), q=3), grid)
    for a, b in zip(rel_q3, rel_q1):
        assert a["rel_error"] < 0.1 * b["rel_error"]
        assert a["rel_error"] < 2e-3


def test_error_rejects_bad_grids():
    sch = TruncationScheme(0.5, 10.0)
    with pytest.raises(ValueError, match="positive"):
        approximation_error(sch, [0.0, 1.0])
    with pytest.raises(ValueError, match="positive"):
        approximation_error(sch, [-1.0])
    with pytest.raises(ValueError, match="nonempty"):
        approximation_error(sch, [])
    with pytest.raises(TypeError):
        approximation_error("truncation", [1.0])


def test_truncation_kernel_takes_no_T_with_a_scheme():
    # the scheme's own T = 25 used to win silently
    with pytest.raises(ValueError, match="^T must not be given with a TruncationScheme"):
        truncation_kernel(TruncationScheme(0.4, 25.0), T=99.0)
