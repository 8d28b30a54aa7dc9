import math

import pytest

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


def test_singular_moment_matrix_names_the_interval():
    # q = 12 on an interval of width 1e-30: the moment matrix is singular at
    # the reduction's working precision
    with pytest.raises(NumericError, match="moment matrix is numerically singular") as exc:
        gaussian_quadrature_kernel(QuadratureScheme(0.5, (0.0, 1e-30), q=12))
    assert exc.value.details == {"interval": (0.0, 1e-30), "q": 12}


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
