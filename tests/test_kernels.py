import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from volterra_feller import (
    ConstantKernel,
    SumOfExponentialsKernel,
    TruncatedFractionalKernel,
    UserKernel,
    kernel_from_dict,
    kernel_to_dict,
)


def test_constant_kernel_values():
    k = ConstantKernel(2.5)
    assert k.eval(0.0) == 2.5
    assert k.eval_deriv(1.3) == 0.0
    assert k.k0_kprime0() == (2.5, 0.0)
    assert k.completely_monotone
    np.testing.assert_array_equal(k.eval(np.array([0.0, 1.0, 7.0])), [2.5, 2.5, 2.5])


def test_constant_kernel_rejects_nonpositive_level():
    with pytest.raises(ValueError, match="level"):
        ConstantKernel(0.0)
    with pytest.raises(ValueError, match="level"):
        ConstantKernel(-1.0)


def test_sumexp_matches_hand_formula():
    w = [0.7, 0.3]
    r = [0.5, 4.0]
    k = SumOfExponentialsKernel(w, r)
    t = np.linspace(0.0, 3.0, 11)
    expect = 0.7 * np.exp(-0.5 * t) + 0.3 * np.exp(-4.0 * t)
    np.testing.assert_allclose(k.eval(t), expect, rtol=1e-15)
    expect_d = -0.35 * np.exp(-0.5 * t) - 1.2 * np.exp(-4.0 * t)
    np.testing.assert_allclose(k.eval_deriv(t), expect_d, rtol=1e-15)
    k0, kp0 = k.k0_kprime0()
    assert k0 == pytest.approx(1.0, rel=1e-15)
    assert kp0 == pytest.approx(-(0.7 * 0.5 + 0.3 * 4.0), rel=1e-15)
    assert k.completely_monotone


def test_sumexp_validation():
    with pytest.raises(ValueError):
        SumOfExponentialsKernel([], [])
    with pytest.raises(ValueError):
        SumOfExponentialsKernel([1.0, -0.2], [1.0, 2.0])
    with pytest.raises(ValueError):
        SumOfExponentialsKernel([1.0], [-1.0])
    with pytest.raises(ValueError):
        SumOfExponentialsKernel([1.0, 1.0], [1.0])


def test_truncfrac_scalars_against_gamma_oracle():
    # K(0) = T^{1-a} / (G(a) G(2-a)),  K'(0) = -T^{2-a} / ((2-a) G(a) G(1-a))
    for alpha, T in [(0.3, 2.0), (0.5, 1.0), (0.7, 50.0)]:
        k = TruncatedFractionalKernel(alpha, T)
        k0, kp0 = k.k0_kprime0()
        want_k0 = T ** (1.0 - alpha) / (math.gamma(alpha) * math.gamma(2.0 - alpha))
        want_kp0 = -(T ** (2.0 - alpha)) / (
            (2.0 - alpha) * math.gamma(alpha) * math.gamma(1.0 - alpha)
        )
        assert k0 == pytest.approx(want_k0, rel=1e-12)
        assert kp0 == pytest.approx(want_kp0, rel=1e-12)


def test_truncfrac_eval_against_quad_oracle():
    # quad's algebraic weight integrates the x^(-alpha) endpoint singularity
    # exactly, so the oracle is good to a few ulps
    for alpha, T in [(0.05, 0.5), (0.3, 2.0), (0.4, 5.0), (0.5, 1.0), (0.7, 50.0), (0.95, 300.0)]:
        k = TruncatedFractionalKernel(alpha, T)
        norm = 1.0 / (math.gamma(alpha) * math.gamma(1.0 - alpha))

        def oracle(f):
            val, _ = quad(f, 0.0, T, weight="alg", wvar=(-alpha, 0.0), limit=200)
            return norm * val

        for t in [0.0, 1e-3, 0.01, 0.3, 1.0, 10.0]:
            assert k.eval(t) == pytest.approx(oracle(lambda x: math.exp(-x * t)), rel=1e-12)
            assert k.eval_deriv(t) == pytest.approx(
                -oracle(lambda x: x * math.exp(-x * t)), rel=1e-12
            )


def test_truncfrac_eval_zero_matches_k0():
    k = TruncatedFractionalKernel(0.5, 1.0)
    k0, _ = k.k0_kprime0()
    assert abs(k.eval(0.0) - k0) <= 1e-10 * k0


def test_truncfrac_monotone_decreasing_and_cm_flag():
    k = TruncatedFractionalKernel(0.6, 100.0)
    t = np.linspace(0.0, 5.0, 60)
    vals = k.eval(t)
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(k.eval_deriv(t) < 0.0)
    assert k.completely_monotone


def test_truncfrac_validation():
    with pytest.raises(ValueError):
        TruncatedFractionalKernel(0.0, 1.0)
    with pytest.raises(ValueError):
        TruncatedFractionalKernel(1.0, 1.0)
    with pytest.raises(ValueError):
        TruncatedFractionalKernel(0.5, 0.0)
    with pytest.raises(ValueError, match="negative"):
        TruncatedFractionalKernel(0.5, 1.0).eval(-0.1)
    with pytest.raises(ValueError, match="overflows"):
        TruncatedFractionalKernel(0.5, 1e300)


def test_user_kernel_asserted_scalars_and_fd_derivative():
    k = UserKernel(lambda t: np.exp(-2.0 * t), k0=1.0, kprime0=-2.0)
    assert k.k0_kprime0() == (1.0, -2.0)
    assert not k.completely_monotone
    assert k.eval(0.5) == pytest.approx(math.exp(-1.0), rel=1e-12)
    # finite-difference fallback for K'
    assert k.eval_deriv(0.5) == pytest.approx(-2.0 * math.exp(-1.0), rel=1e-4)
    with pytest.raises(ValueError):
        UserKernel(lambda t: t, k0=-1.0, kprime0=0.0)
    with pytest.raises(ValueError, match="func must be callable"):
        UserKernel(3.0, k0=1.0, kprime0=0.0)


@pytest.mark.parametrize(
    "kernel",
    [
        ConstantKernel(3.0),
        SumOfExponentialsKernel([0.6, 0.4], [1.0, 3.0]),
        TruncatedFractionalKernel(0.45, 7.0),
    ],
)
def test_dict_round_trip(kernel):
    rec = kernel_to_dict(kernel)
    back = kernel_from_dict(rec)
    assert type(back) is type(kernel)
    t = np.linspace(0.0, 2.0, 7)
    np.testing.assert_allclose(back.eval(t), kernel.eval(t), rtol=1e-15)
    assert back.k0_kprime0() == kernel.k0_kprime0()


_finite = dict(allow_nan=False, allow_infinity=False)
_KERNELS = st.one_of(
    st.builds(ConstantKernel, st.floats(min_value=0.0, exclude_min=True, **_finite)),
    st.integers(1, 6).flatmap(
        lambda n: st.builds(
            SumOfExponentialsKernel,
            st.lists(st.floats(min_value=0.0, exclude_min=True, **_finite), min_size=n, max_size=n),
            st.lists(st.floats(min_value=0.0, **_finite), min_size=n, max_size=n),
        )
    ),
    # K'(0) ~ T^(2-alpha) stays finite up to T ~ 1e154; larger T is rejected
    st.builds(
        TruncatedFractionalKernel,
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.floats(min_value=0.0, max_value=1e150, exclude_min=True),
    ),
)


@settings(max_examples=200)
@given(_KERNELS)
def test_dict_round_trip_property(kernel):
    back = kernel_from_dict(kernel_to_dict(kernel))
    assert type(back) is type(kernel)
    assert back == kernel
    t = np.array([0.0, 1e-3, 0.5, 2.0, 40.0])
    # extreme weights and rates overflow to inf, identically on both sides
    with np.errstate(all="ignore"):
        assert back.k0_kprime0() == kernel.k0_kprime0()
        np.testing.assert_array_equal(back.eval(t), kernel.eval(t))


def test_dict_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        kernel_from_dict({"kind": "mystery"})


def test_user_kernels_have_no_record():
    kernel = UserKernel(lambda t: np.exp(-t), k0=1.0, kprime0=-1.0)
    with pytest.raises(ValueError, match="^kernel of type UserKernel has no serialized form"):
        kernel_to_dict(kernel)


@pytest.mark.parametrize("record, message", [
    ({"level": 1.0}, "missing the 'kind' tag"),
    ({"kind": "constant", "level": 1.0, "slope": 0.0}, r"unknown kernel field\(s\) \['slope'\]"),
    ({"kind": "truncfrac", "alpha": 0.5}, r"missing kernel field\(s\) \['T'\]"),
])
def test_dict_rejects_malformed_records(record, message):
    with pytest.raises(ValueError, match=message):
        kernel_from_dict(record)


@pytest.mark.parametrize("weights, rates, name", [
    (["1"], ["0.5"], "weights"),  # numeric strings were converted
    ([1.0], [math.nan], "rates"),
    ([1.0, None], [1.0, 2.0], "weights"),
    ([1 + 0j], [1.0], "weights"),
    ([[1.0, 2.0]], [1.0], "weights"),
])
def test_sumexp_entries_must_be_finite_reals(weights, rates, name):
    with pytest.raises(ValueError, match=f"^{name} entries must be finite"):
        SumOfExponentialsKernel(weights, rates)


def test_sumexp_takes_numpy_entries_as_floats():
    kernel = SumOfExponentialsKernel(np.array([0.5, 0.5]), np.array([1, 2]))
    assert kernel == SumOfExponentialsKernel((0.5, 0.5), (1.0, 2.0))
    assert all(type(v) is float for v in kernel.weights + kernel.rates)
