import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from volterra_feller import (
    CIRModel,
    ConstantKernel,
    CustomModel,
    JacobiModel,
    PowerModel,
    ScaleContext,
    SumOfExponentialsKernel,
    necessary_test,
)
from volterra_feller._quad import outward_edges
from volterra_feller.scale import _NAT, _Sweep
from volterra_feller.errors import NumericError


def _sweep(ctx, xs, counts, field="log_v", stop=math.inf, n_terms=1):
    # one round of ctx._sweep_passes for the one leg xs under the shift on
    # its side of c, a pass per count: each field and the fitted exponents, a
    # row per count
    passes = [(ctx._side_shift(min(xs)), xs, n) for n in counts]
    swept = ctx._sweep_passes(passes, field, stop, n_terms)
    return _Sweep(*np.stack([s for s, _ in swept], axis=1)), np.array([f for _, f in swept])


def _stabilized(ctx, xs, field, stop=math.inf, n_terms=1):
    # ctx._stabilized_legs for the one leg xs under the shift on its side of
    # c, raising its NumericError
    (out,) = ctx._stabilized_legs([(ctx._side_shift(min(xs)), xs)], field, stop, n_terms)
    if isinstance(out, NumericError):
        raise out
    return out


# ---------------------------------------------------------------- models


def test_cir_model_basics():
    m = CIRModel(kappa=1.0, theta=0.5, sigma=2.0, x0=0.3)
    assert m.interval == (0.0, math.inf)
    assert m.drift(0.25) == pytest.approx(0.25)
    assert m.diffusion(0.25) == pytest.approx(1.0)
    np.testing.assert_array_equal(m.truncate(np.array([-1.0, 0.5])), [0.0, 0.5])


def test_cir_model_validation_names_offending_field():
    with pytest.raises(ValueError, match="kappa"):
        CIRModel(kappa=-1.0, theta=1.0, sigma=1.0, x0=0.5)
    with pytest.raises(ValueError, match="sigma"):
        CIRModel(kappa=1.0, theta=1.0, sigma=0.0, x0=0.5)
    with pytest.raises(ValueError, match="x0"):
        CIRModel(kappa=1.0, theta=1.0, sigma=1.0, x0=-0.5)


def test_jacobi_model_basics_and_validation():
    m = JacobiModel(a=-1.0, b=3.0, kappa=2.0, theta=1.0, sigma=0.5, x0=0.0)
    assert m.interval == (-1.0, 3.0)
    assert m.diffusion(1.0) == pytest.approx(0.5 * math.sqrt(2.0 * 2.0))
    with pytest.raises(ValueError):
        JacobiModel(a=1.0, b=1.0, kappa=1.0, theta=1.0, sigma=1.0, x0=1.0)
    with pytest.raises(ValueError, match="theta"):
        JacobiModel(a=0.0, b=1.0, kappa=1.0, theta=2.0, sigma=1.0, x0=0.5)


def test_power_model_basics_and_validation():
    m = PowerModel(alpha=1.5, delta=0.75, sigma=1.0, x0=2.0)
    assert m.interval == (-math.inf, math.inf)
    assert m.drift(-2.0) == pytest.approx(2.0**1.5)  # b(x) = |x|^alpha
    assert m.diffusion(-3.0) == pytest.approx(3.0**0.375)  # sig |x|^(delta/2)
    with pytest.raises(ValueError, match="alpha"):
        PowerModel(alpha=0.9, delta=0.5, sigma=1.0, x0=0.0)
    with pytest.raises(ValueError, match="delta"):
        PowerModel(alpha=1.5, delta=1.0, sigma=1.0, x0=0.0)


def test_custom_model_wraps_callables():
    m = CustomModel(lambda x: -x, lambda x: np.ones_like(x), (-2.0, 2.0), 0.0)
    assert m.interval == (-2.0, 2.0)
    assert m.drift(1.5) == pytest.approx(-1.5)
    with pytest.raises(ValueError, match="x0"):
        CustomModel(lambda x: x, lambda x: x, (0.0, 1.0), 2.0)


# ---------------------------------------------------------------- context


def test_context_rejects_bad_kernel_scalars(cir_111):
    increasing = SumOfExponentialsKernel([1.0], [1.0])
    object.__setattr__(increasing, "weights", (1.0,))  # keep frozen dataclass happy

    class Rising:
        completely_monotone = False

        def k0_kprime0(self):
            return (1.0, 0.5)

    with pytest.raises(ValueError, match="K'"):
        ScaleContext(cir_111, Rising())


def test_context_defaults_and_immutability(cir_ctx):
    assert cir_ctx.c == 1.0  # defaults to x0
    shifted = cir_ctx.with_shifts(0.2, -0.1)
    assert (shifted.beta, shifted.gamma) == (0.2, -0.1)
    assert (cir_ctx.beta, cir_ctx.gamma) == (0.0, 0.0)
    moved = cir_ctx.with_base(0.5)
    assert moved.c == 0.5 and cir_ctx.c == 1.0


def test_modified_coefficients_with_sloped_kernel(cir_111, sloped_kernel):
    ctx = ScaleContext(cir_111, sloped_kernel, beta=0.3, gamma=-0.2)
    # b~(x) = K0 b(x) + (Kp0/K0) x with K0=1, Kp0=-1
    assert ctx.b_tilde(0.5) == pytest.approx(cir_111.drift(0.5) - 0.5)
    # below c the beta shift applies, above c the gamma shift
    assert ctx.b_tilde_shifted(0.5) == pytest.approx(ctx.b_tilde(0.5) - 0.3)
    assert ctx.b_tilde_shifted(1.5) == pytest.approx(ctx.b_tilde(1.5) + 0.2)
    assert ctx.sigma_tilde_sq(0.25) == pytest.approx(0.25)


# ------------------------------------------------------- scale function p


def test_cir_scale_derivative_closed_form(cir_ctx):
    # CIR(1,1,1), K==1, c=1: p'(x) = x^{-2} e^{2(x-1)}
    for x in [0.25, 0.5, 1.0, 1.7, 3.0]:
        want = x**-2 * math.exp(2.0 * (x - 1.0))
        assert cir_ctx.scale_derivative(x) == pytest.approx(want, rel=1e-12)
    assert cir_ctx.scale_derivative(0.5) == pytest.approx(4.0 / math.e, rel=1e-12)


def test_custom_scale_derivative_on_both_sides_of_c(cir_111, unit_kernel):
    # a custom clone used to reject a batch straddling the base point
    clone = CustomModel(lambda x: 1.0 * (1.0 - x), lambda x: np.sqrt(x), (0.0, math.inf), 1.0)
    ctx, want = ScaleContext(clone, unit_kernel), ScaleContext(cir_111, unit_kernel)
    xs = np.array([0.5, 1.5])
    np.testing.assert_allclose(ctx.log_scale_derivative(xs), want.log_scale_derivative(xs),
                               rtol=1e-9)
    np.testing.assert_allclose(ctx.scale_derivative(xs), want.scale_derivative(xs), rtol=1e-9)


def test_scale_matches_quad_oracle(cir_ctx):
    for x in [0.3, 0.8, 1.6]:
        want, err = quad(cir_ctx.scale_derivative, 1.0, x)
        assert cir_ctx.scale(x) == pytest.approx(want, rel=1e-8, abs=2.0 * abs(err))
    assert cir_ctx.scale(1.0) == 0.0


def test_scale_strictly_increasing(cir_ctx):
    xs = np.linspace(0.05, 4.0, 40)
    ps = [cir_ctx.scale(x) for x in xs]
    assert all(b > a for a, b in zip(ps, ps[1:]))


def test_jacobi_scale_against_quad_oracle(jacobi_unit, sloped_kernel):
    ctx = ScaleContext(jacobi_unit, sloped_kernel, beta=0.1, gamma=-0.3)
    for x in [0.1, 0.35, 0.62, 0.9]:
        want, err = quad(ctx.scale_derivative, ctx.c, x, limit=200)
        assert ctx.scale(x) == pytest.approx(want, rel=1e-7, abs=2.0 * abs(err))


# ---------------------------------------------------------- test function v


def _v_oracle(ctx, x):
    # v(x) = int_c^x p'(y) int_c^y 2 / (p' sig~^2) dz dy by nested quadrature
    def inner(y):
        val, _ = quad(
            lambda z: 2.0 / (ctx.scale_derivative(z) * ctx.sigma_tilde_sq(z)),
            ctx.c,
            y,
            limit=200,
        )
        return val

    val, _ = quad(lambda y: ctx.scale_derivative(y) * inner(y), ctx.c, x, limit=100)
    return val


def test_v_matches_nested_quad_oracle(cir_ctx):
    for x in [0.5, 1.8]:
        assert cir_ctx.v(x) == pytest.approx(_v_oracle(cir_ctx, x), rel=1e-6)
    assert cir_ctx.v(1.0) == 0.0


def test_v_nonnegative_and_grows_from_base(cir_ctx):
    xs = [0.2, 0.6, 0.9, 1.1, 1.5, 2.5]
    vals = [cir_ctx.v(x) for x in xs]
    assert all(v >= 0.0 for v in vals)
    assert vals[0] > vals[1] > vals[2]  # decreasing toward c from the left
    assert vals[3] < vals[4] < vals[5]


def test_v_with_shifts_matches_oracle(cir_111, sloped_kernel):
    ctx = ScaleContext(cir_111, sloped_kernel, beta=0.5, gamma=-0.5)
    for x in [0.6, 1.5]:
        assert ctx.v(x) == pytest.approx(_v_oracle(ctx, x), rel=1e-6)


@pytest.mark.parametrize("case", ["cir", "jacobi", "custom_cir"])
def test_multi_point_sweep_matches_nested_quad_oracle(case, cir_111, jacobi_unit,
                                                      sloped_kernel, unit_kernel):
    if case == "jacobi":
        ctx = ScaleContext(jacobi_unit, sloped_kernel, beta=0.1, gamma=-0.3)
        legs = ([0.35, 0.1], [0.7, 0.9])
    else:
        ctx = ScaleContext(cir_111, unit_kernel)
        legs = ([0.6, 0.2], [1.5, 2.5])
    sweep_ctx = ctx
    if case == "custom_cir":
        # checked against the closed-form model's oracle
        clone = CustomModel(lambda x: 1.0 - x, np.sqrt, (0.0, math.inf), 1.0)
        sweep_ctx = ScaleContext(clone, unit_kernel)
    for xs in legs:
        sweep, _ = _stabilized(sweep_ctx, xs, "log_v")
        for x, log_v in zip(xs, sweep.log_v):
            assert math.exp(log_v) == pytest.approx(_v_oracle(ctx, x), rel=1e-6)


@settings(max_examples=25)
@given(
    kappa=st.floats(0.2, 3.0),
    theta=st.floats(0.05, 3.0),
    sigma=st.floats(0.2, 2.0),
    c=st.floats(0.1, 4.0),
)
def test_v_grows_away_from_c_along_one_sweep(kappa, theta, sigma, c):
    ctx = ScaleContext(CIRModel(kappa, theta, sigma, c), ConstantKernel(1.0))
    for xs in (c * np.array([0.9, 0.6, 0.3, 0.05]), c + np.array([0.1, 0.5, 1.5, 4.0])):
        sweep, _ = _stabilized(ctx, xs, "log_v")
        assert np.all(np.diff(sweep.log_v) > 0.0)
    for x in (0.5 * c, 2.0 * c):
        assert np.sign(ctx.scale(x)) == np.sign(x - c)


def test_v_prime_is_derivative_of_v(cir_ctx):
    h = 1e-5
    for x in [0.7, 1.4]:
        fd = (cir_ctx.v(x + h) - cir_ctx.v(x - h)) / (2.0 * h)
        assert cir_ctx.v_prime(x) == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("read", ["scale", "v", "v_prime", "log_scale_derivative"])
@pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan])
def test_values_need_a_point_strictly_inside(cir_ctx, read, x):
    with pytest.raises(ValueError, match=r"^argument must lie strictly inside \(0\.0, inf\)"):
        getattr(cir_ctx, read)(x)


_SCALAR_READS = ["scale", "v", "v_prime", "u_series"]
_ARRAY_READS = ["log_scale_derivative", "scale_derivative"]


@pytest.mark.parametrize("read", _SCALAR_READS + _ARRAY_READS)
@pytest.mark.parametrize("x", ["0.5", None, 0.5 + 0j], ids=["str", "None", "complex"])
def test_a_point_must_be_a_real_number(cir_ctx, read, x):
    # the one rule for reals: no conversion of strings, no TypeError
    with pytest.raises(ValueError, match=r"^x must be finite, got "):
        getattr(cir_ctx, read)(x)


@pytest.mark.parametrize("read", _SCALAR_READS)
def test_a_scalar_read_takes_no_list(cir_ctx, read):
    with pytest.raises(ValueError, match=r"^x must be finite, got \[0\.5\]"):
        getattr(cir_ctx, read)([0.5])


@pytest.mark.parametrize("read", _ARRAY_READS)
@pytest.mark.parametrize("x", [["0.5"], [None], np.array([0.5 + 0j])],
                         ids=["str", "None", "complex"])
def test_an_array_of_points_must_hold_reals(cir_ctx, read, x):
    with pytest.raises(ValueError, match=r"^x must hold real numbers, got dtype"):
        getattr(cir_ctx, read)(x)


def test_bool_points_count_as_reals(cir_111, unit_kernel):
    ctx = ScaleContext(cir_111, unit_kernel, c=0.5)
    for read in _SCALAR_READS + _ARRAY_READS:
        assert getattr(ctx, read)(True) == getattr(ctx, read)(1.0), read
    assert ctx.log_scale_derivative(np.array([True])) == ctx.log_scale_derivative([1.0])


# ------------------------------------------------------------ sweep bits


def _pinned_legs():
    # (context, points, series terms) for one leg per kind of panel the
    # sweep meets: end panels at a finite endpoint (CIR, Jacobi), an interior
    # zero of sigma (power), E from the integration matrix (custom CIR clone)
    # and graded panels the halving rounds flag (power, alpha = 2); and
    # interior legs of CIR and Jacobi under both kernels with 8 terms, where
    # the high terms' node partials are clamped at 0 next to c
    exp, one = SumOfExponentialsKernel([1.0], [1.0]), ConstantKernel(1.0)
    clone = CustomModel(lambda x: 1.0 - x, np.sqrt, (0.0, math.inf), 1.0)
    cir, jacobi = CIRModel(1.2, 0.6, 0.85, 0.8), JacobiModel(0.0, 1.0, 1.5, 0.5, 0.55, 0.5)
    return {
        "cir_to_0": (ScaleContext(CIRModel(1.0, 0.3, 1.0, 1.0), exp), [0.5, 0.0], 3),
        "jacobi_to_0": (ScaleContext(JacobiModel(0.0, 1.0, 0.5, 0.5, 1.0, 0.5), exp,
                                     beta=0.1, gamma=-0.3), [0.3, 0.0], 3),
        "power_across_0": (ScaleContext(PowerModel(1.5, 0.5, 1.0, 1.0), one), [-0.3, -1.0], 3),
        "custom_cir": (ScaleContext(clone, one), [0.6, 0.2], 3),
        "power_graded": (ScaleContext(PowerModel(2.0, 0.0, 1.0, 0.5), one), [8.5, 64.5], 3),
        "cir_inside": (ScaleContext(cir, one), [0.68, 0.24], 8),
        "cir_inside_sloped": (ScaleContext(cir, exp), [1.44, 2.0], 8),
        "jacobi_inside": (ScaleContext(jacobi, one), [0.6, 0.9], 8),
        "jacobi_inside_sloped": (ScaleContext(jacobi, exp), [0.4, 0.1], 8),
    }


# float.hex of the _Sweep rows (e, log_i, log_p, log_v, log_u, each at the
# leg's points) of the 64-panel sweep and of _stabilized's converged sweep,
# keyed (leg, field, base panels); log_u carries the leg's series terms,
# log_v one (so v's last integral is the series' only one)
_SWEEP_BITS = {
    ("cir_to_0", "log_p", 64): (
        "-0x1.95885804e8838p+0 inf nan nan -0x1.679fad78d6950p+0 -0x1.23b0fb65f40a9p+0 nan nan "
        "nan nan"
    ),
    ("cir_to_0", "log_p", 128): (
        "-0x1.95885804e8838p+0 inf nan nan -0x1.679fad78d6953p+0 -0x1.23b0fb65e7056p+0 nan nan "
        "nan nan"
    ),
    ("cir_to_0", "log_u", 64): (
        "-0x1.95885804e8838p+0 inf 0x1.46696d9c86a16p-1 0x1.c7ab52ad11926p+1 nan nan "
        "-0x1.9e635cca1ec21p+0 0x1.4062b7df72588p-1 -0x1.91d92a81ea006p+0 0x1.1ea28f7748036p+0"
    ),
    ("cir_to_0", "log_u", 256): (
        "-0x1.95885804e8838p+0 inf 0x1.46696d9c86a14p-1 0x1.c7ab52ad13f70p+1 nan nan "
        "-0x1.9e635cca1ec22p+0 0x1.4062b646d9426p-1 -0x1.91d92a81ea007p+0 0x1.1ea28d996b408p+0"
    ),
    ("jacobi_to_0", "log_p", 64): (
        "-0x1.82ad28d199a76p-1 inf nan nan -0x1.febb8aae38b6cp+0 -0x1.60bfc400faab0p+0 nan nan "
        "nan nan"
    ),
    ("jacobi_to_0", "log_p", 128): (
        "-0x1.82ad28d199a76p-1 inf nan nan -0x1.febb8aae38b6cp+0 -0x1.60bfc400fac17p+0 nan nan "
        "nan nan"
    ),
    ("jacobi_to_0", "log_u", 64): (
        "-0x1.82ad28d199a76p-1 inf 0x1.1c820db758d25p-2 0x1.70e2cbfb25fd4p+1 nan nan "
        "-0x1.04bb76d010f8fp+1 0x1.94b4adf6434bep-3 -0x1.01579203bda4ap+1 0x1.052ebf574a006p-1"
    ),
    ("jacobi_to_0", "log_u", 256): (
        "-0x1.82ad28d199a76p-1 inf 0x1.1c820db758d24p-2 0x1.70e2cbfa7e93ep+1 nan nan "
        "-0x1.04bb76d010f8fp+1 0x1.94b4aeb118120p-3 -0x1.01579203bda4ap+1 0x1.052ebfb08d7c7p-1"
    ),
    ("power_across_0", "log_p", 64): (
        "0x1.170a3d70a3d71p+0 0x1.0000000000000p+1 nan nan 0x1.0df76ec935a3ap+0 "
        "0x1.caf203616f0bdp+0 nan nan nan nan"
    ),
    ("power_across_0", "log_p", 128): (
        "0x1.170a3d70a3d71p+0 0x1.0000000000000p+1 nan nan 0x1.0df76ec935a3ap+0 "
        "0x1.caf203616f0b9p+0 nan nan nan nan"
    ),
    ("power_across_0", "log_u", 64): (
        "0x1.170a3d70a3d71p+0 0x1.0000000000000p+1 0x1.250163afe24cep-2 0x1.c55c1650a642dp-2 "
        "nan nan 0x1.59cbb3fd3f0a9p+0 0x1.4a1d6a51a2a90p+1 0x1.fb119ab7ec449p+0 "
        "0x1.ddbd72587137ap+1"
    ),
    ("power_across_0", "log_u", 128): (
        "0x1.170a3d70a3d71p+0 0x1.0000000000000p+1 0x1.250163afe24cbp-2 0x1.c55c1650a642bp-2 "
        "nan nan 0x1.59cbb3fd5a5e1p+0 0x1.4a1d6a51a6a96p+1 0x1.fb119ab87cc4cp+0 "
        "0x1.ddbd7258983f4p+1"
    ),
    ("custom_cir", "log_p", 64): (
        "0x1.c5f116da23c26p-3 0x1.9e6ea564180cdp+0 nan nan -0x1.b17d87964acfep-1 "
        "0x1.1dea746bc5c33p-2 nan nan nan nan"
    ),
    ("custom_cir", "log_p", 128): (
        "0x1.c5f116da23c27p-3 0x1.9e6ea564180cep+0 nan nan -0x1.b17d87964acfcp-1 "
        "0x1.1dea746bc5c37p-2 nan nan nan nan"
    ),
    ("custom_cir", "log_u", 64): (
        "0x1.c5f116da23c26p-3 0x1.9e6ea564180cdp+0 -0x1.7e2e658ef9292p-1 -0x1.0f91b3a01aa02p-6 "
        "nan nan -0x1.9ae06d3857396p+0 0x1.f1fac8b37aadfp-2 -0x1.92412b2775726p+0 "
        "0x1.63c48fdb9bebep-1"
    ),
    ("custom_cir", "log_u", 128): (
        "0x1.c5f116da23c27p-3 0x1.9e6ea564180cep+0 -0x1.7e2e658ef9294p-1 -0x1.0f91b3a01aa07p-6 "
        "nan nan -0x1.9ae06d3857397p+0 0x1.f1fac8b37aadbp-2 -0x1.92412b2775727p+0 "
        "0x1.63c48fdb9bebdp-1"
    ),
    ("power_graded", "log_p", 64): (
        "-0x1.9955555555556p+8 -0x1.5d65555555555p+17 nan nan -0x1.1818e30cf30c3p-1 "
        "-0x1.1818e30cf30c3p-1 nan nan nan nan"
    ),
    ("power_graded", "log_p", 128): (
        "-0x1.9955555555556p+8 -0x1.5d65555555555p+17 nan nan -0x1.1818e30cf30c3p-1 "
        "-0x1.1818e30cf30c3p-1 nan nan nan nan"
    ),
    ("power_graded", "log_u", 64): (
        "-0x1.9955555555556p+8 -0x1.5d65555555555p+17 0x1.945c978d3e07ap+8 "
        "0x1.5d60d1f1d626dp+17 nan nan 0x1.5ac01c9f019d1p-3 0x1.021d7f4be177ep-2 "
        "0x1.510e691a902ffp-1 0x1.999ecf19433f8p-1"
    ),
    ("power_graded", "log_u", 128): (
        "-0x1.9955555555556p+8 -0x1.5d65555555555p+17 0x1.945c978d3e07ap+8 "
        "0x1.5d60d1f1d626dp+17 nan nan 0x1.5ac01c9f019ccp-3 0x1.021d7f4be178dp-2 "
        "0x1.510e691a902fep-1 0x1.999ecf19433edp-1"
    ),
    ("cir_to_0", "log_v", 64): (
        "-0x1.95885804e8838p+0 inf 0x1.46696d9c86a16p-1 0x1.c7ab52ad11926p+1 nan nan "
        "-0x1.9e635cca1ec21p+0 0x1.4062b7df72588p-1 -0x1.9e635cca1ec21p+0 "
        "0x1.4062b7df72588p-1"
    ),
    ("cir_to_0", "log_v", 256): (
        "-0x1.95885804e8838p+0 inf 0x1.46696d9c86a14p-1 0x1.c7ab52ad13f70p+1 nan nan "
        "-0x1.9e635cca1ec22p+0 0x1.4062b646d9426p-1 -0x1.9e635cca1ec22p+0 "
        "0x1.4062b646d9426p-1"
    ),
    ("jacobi_to_0", "log_v", 64): (
        "-0x1.82ad28d199a76p-1 inf 0x1.1c820db758d25p-2 0x1.70e2cbfb25fd4p+1 nan nan "
        "-0x1.04bb76d010f8fp+1 0x1.94b4adf6434bep-3 -0x1.04bb76d010f8fp+1 "
        "0x1.94b4adf6434bep-3"
    ),
    ("jacobi_to_0", "log_v", 256): (
        "-0x1.82ad28d199a76p-1 inf 0x1.1c820db758d24p-2 0x1.70e2cbfa7e93ep+1 nan nan "
        "-0x1.04bb76d010f8fp+1 0x1.94b4aeb118120p-3 -0x1.04bb76d010f8fp+1 "
        "0x1.94b4aeb118120p-3"
    ),
    ("power_across_0", "log_v", 64): (
        "0x1.170a3d70a3d71p+0 0x1.0000000000000p+1 0x1.250163afe24cep-2 0x1.c55c1650a642dp-2 "
        "nan nan 0x1.59cbb3fd3f0a9p+0 0x1.4a1d6a51a2a90p+1 0x1.59cbb3fd3f0a9p+0 "
        "0x1.4a1d6a51a2a90p+1"
    ),
    ("power_across_0", "log_v", 128): (
        "0x1.170a3d70a3d71p+0 0x1.0000000000000p+1 0x1.250163afe24cbp-2 0x1.c55c1650a642bp-2 "
        "nan nan 0x1.59cbb3fd5a5e1p+0 0x1.4a1d6a51a6a96p+1 0x1.59cbb3fd5a5e1p+0 "
        "0x1.4a1d6a51a6a96p+1"
    ),
    ("custom_cir", "log_v", 64): (
        "0x1.c5f116da23c26p-3 0x1.9e6ea564180cdp+0 -0x1.7e2e658ef9292p-1 "
        "-0x1.0f91b3a01aa02p-6 nan nan -0x1.9ae06d3857396p+0 0x1.f1fac8b37aadfp-2 "
        "-0x1.9ae06d3857396p+0 0x1.f1fac8b37aadfp-2"
    ),
    ("custom_cir", "log_v", 128): (
        "0x1.c5f116da23c27p-3 0x1.9e6ea564180cep+0 -0x1.7e2e658ef9294p-1 "
        "-0x1.0f91b3a01aa07p-6 nan nan -0x1.9ae06d3857397p+0 0x1.f1fac8b37aadbp-2 "
        "-0x1.9ae06d3857397p+0 0x1.f1fac8b37aadbp-2"
    ),
    ("power_graded", "log_v", 64): (
        "-0x1.9955555555556p+8 -0x1.5d65555555555p+17 0x1.945c978d3e07ap+8 "
        "0x1.5d60d1f1d626dp+17 nan nan 0x1.5ac01c9f019d1p-3 0x1.021d7f4be177ep-2 "
        "0x1.5ac01c9f019d1p-3 0x1.021d7f4be177ep-2"
    ),
    ("power_graded", "log_v", 128): (
        "-0x1.9955555555556p+8 -0x1.5d65555555555p+17 0x1.945c978d3e07ap+8 "
        "0x1.5d60d1f1d626dp+17 nan nan 0x1.5ac01c9f019ccp-3 0x1.021d7f4be178dp-2 "
        "0x1.5ac01c9f019ccp-3 0x1.021d7f4be178dp-2"
    ),
    ("cir_inside", "log_p", 64): (
        "-0x1.31fb847cd8d58p-4 0x1.142d0618ed39ap-1 nan nan -0x1.14b4a81a02f0ap+1 "
        "-0x1.10156802f9bf5p-1 nan nan nan nan"
    ),
    ("cir_inside", "log_p", 128): (
        "-0x1.31fb847cd8d58p-4 0x1.142d0618ed39ap-1 nan nan -0x1.14b4a81a02f0ap+1 "
        "-0x1.10156802f9bf7p-1 nan nan nan nan"
    ),
    ("cir_inside", "log_v", 64): (
        "-0x1.31fb847cd8d58p-4 0x1.142d0618ed39ap-1 -0x1.72edd55e166a4p+0 0x1.c23c55bbcec09p-2 "
        "nan nan -0x1.d5002274f0806p+1 -0x1.ec271d317a64ep-4 -0x1.d5002274f0806p+1 "
        "-0x1.ec271d317a64ep-4"
    ),
    ("cir_inside", "log_v", 128): (
        "-0x1.31fb847cd8d58p-4 0x1.142d0618ed39ap-1 -0x1.72edd55e166a4p+0 0x1.c23c55bbcec0ap-2 "
        "nan nan -0x1.d5002274f0806p+1 -0x1.ec271d317a653p-4 -0x1.d5002274f0806p+1 "
        "-0x1.ec271d317a653p-4"
    ),
    ("cir_inside", "log_u", 64): (
        "-0x1.31fb847cd8d58p-4 0x1.142d0618ed39ap-1 -0x1.72edd55e166a4p+0 0x1.c23c55bbcec09p-2 "
        "nan nan -0x1.d5002274f0806p+1 -0x1.ec271d317a64ep-4 -0x1.d46e69cabb89cp+1 "
        "0x1.cb6e805d45f6cp-6"
    ),
    ("cir_inside", "log_u", 128): (
        "-0x1.31fb847cd8d58p-4 0x1.142d0618ed39ap-1 -0x1.72edd55e166a4p+0 0x1.c23c55bbcec0ap-2 "
        "nan nan -0x1.d5002274f0806p+1 -0x1.ec271d317a653p-4 -0x1.d46e69cabb89cp+1 "
        "0x1.cb6e805d45fa0p-6"
    ),
    ("cir_inside_sloped", "log_p", 64): (
        "0x1.5cefef81d61a0p+1 0x1.5ed478435d0f0p+2 nan nan 0x1.2938b1288688cp+0 "
        "0x1.f013fbddda586p+1 nan nan nan nan"
    ),
    ("cir_inside_sloped", "log_p", 128): (
        "0x1.5cefef81d61a0p+1 0x1.5ed478435d0f0p+2 nan nan 0x1.2938b1288688bp+0 "
        "0x1.f013fbddda584p+1 nan nan nan nan"
    ),
    ("cir_inside_sloped", "log_v", 64): (
        "0x1.5cefef81d61a0p+1 0x1.5ed478435d0f0p+2 -0x1.1b7cdd3aa6599p+0 -0x1.131c3d2e5b4c7p+0 "
        "nan nan 0x1.41f33044a9504p-1 0x1.bd976f0bb6225p+1 0x1.41f33044a9504p-1 "
        "0x1.bd976f0bb6225p+1"
    ),
    ("cir_inside_sloped", "log_v", 128): (
        "0x1.5cefef81d61a0p+1 0x1.5ed478435d0f0p+2 -0x1.1b7cdd3aa6598p+0 -0x1.131c3d2e5b4c7p+0 "
        "nan nan 0x1.41f33044a9502p-1 0x1.bd976f0bb6226p+1 0x1.41f33044a9502p-1 "
        "0x1.bd976f0bb6226p+1"
    ),
    ("cir_inside_sloped", "log_u", 64): (
        "0x1.5cefef81d61a0p+1 0x1.5ed478435d0f0p+2 -0x1.1b7cdd3aa6599p+0 -0x1.131c3d2e5b4c7p+0 "
        "nan nan 0x1.41f33044a9504p-1 0x1.bd976f0bb6225p+1 0x1.72acf5f88356dp-1 "
        "0x1.dddec4f6cc6dap+1"
    ),
    ("cir_inside_sloped", "log_u", 128): (
        "0x1.5cefef81d61a0p+1 0x1.5ed478435d0f0p+2 -0x1.1b7cdd3aa6598p+0 -0x1.131c3d2e5b4c7p+0 "
        "nan nan 0x1.41f33044a9502p-1 0x1.bd976f0bb6226p+1 0x1.72acf5f88356bp-1 "
        "0x1.dddec4f6cc6dbp+1"
    ),
    ("jacobi_inside", "log_p", 64): (
        "0x1.9e90025d6f271p-3 0x1.4439fcaa43f45p+2 nan nan -0x1.1dee0a3a8da43p+1 "
        "0x1.a060a3c559358p+0 nan nan nan nan"
    ),
    ("jacobi_inside", "log_p", 128): (
        "0x1.9e90025d6f271p-3 0x1.4439fcaa43f45p+2 nan nan -0x1.1dee0a3a8da43p+1 "
        "0x1.a060a3c55935dp+0 nan nan nan nan"
    ),
    ("jacobi_inside", "log_v", 64): (
        "0x1.9e90025d6f271p-3 0x1.4439fcaa43f45p+2 0x1.d1181ce62c6c5p-3 0x1.fb45faa0b21afp-1 "
        "nan nan -0x1.f2adf326ceb64p+0 0x1.a28d966fa1861p+1 -0x1.f2adf326ceb64p+0 "
        "0x1.a28d966fa1861p+1"
    ),
    ("jacobi_inside", "log_v", 128): (
        "0x1.9e90025d6f271p-3 0x1.4439fcaa43f45p+2 0x1.d1181ce62c6c6p-3 0x1.fb45faa0b21aep-1 "
        "nan nan -0x1.f2adf326ceb63p+0 0x1.a28d966fa1861p+1 -0x1.f2adf326ceb63p+0 "
        "0x1.a28d966fa1861p+1"
    ),
    ("jacobi_inside", "log_u", 64): (
        "0x1.9e90025d6f271p-3 0x1.4439fcaa43f45p+2 0x1.d1181ce62c6c5p-3 0x1.fb45faa0b21afp-1 "
        "nan nan -0x1.f2adf326ceb64p+0 0x1.a28d966fa1861p+1 -0x1.ece7ea45b458dp+0 "
        "0x1.e0d575e6efa27p+1"
    ),
    ("jacobi_inside", "log_u", 128): (
        "0x1.9e90025d6f271p-3 0x1.4439fcaa43f45p+2 0x1.d1181ce62c6c6p-3 0x1.fb45faa0b21aep-1 "
        "nan nan -0x1.f2adf326ceb63p+0 0x1.a28d966fa1861p+1 -0x1.ece7ea45b458cp+0 "
        "0x1.e0d575e6efa27p+1"
    ),
    ("jacobi_inside_sloped", "log_p", 64): (
        "-0x1.00c52d0ef0179p+0 0x1.2e0a6a344dff1p+0 nan nan -0x1.6831656fea8b1p+1 "
        "-0x1.76b5c4509d6bdp+0 nan nan nan nan"
    ),
    ("jacobi_inside_sloped", "log_p", 128): (
        "-0x1.00c52d0ef0179p+0 0x1.2e0a6a344dff1p+0 nan nan -0x1.6831656fea8afp+1 "
        "-0x1.76b5c4509d6bbp+0 nan nan nan nan"
    ),
    ("jacobi_inside_sloped", "log_v", 64): (
        "-0x1.00c52d0ef0179p+0 0x1.2e0a6a344dff1p+0 0x1.c85ad97bc94a7p-1 0x1.677c4fa3fa976p+1 "
        "nan nan -0x1.2947e1d8fbff0p+1 0x1.859d87c38d20bp+0 -0x1.2947e1d8fbff0p+1 "
        "0x1.859d87c38d20bp+0"
    ),
    ("jacobi_inside_sloped", "log_v", 128): (
        "-0x1.00c52d0ef0179p+0 0x1.2e0a6a344dff1p+0 0x1.c85ad97bc94a9p-1 0x1.677c4fa3fa970p+1 "
        "nan nan -0x1.2947e1d8fbfeep+1 0x1.859d87c38d20cp+0 -0x1.2947e1d8fbfeep+1 "
        "0x1.859d87c38d20cp+0"
    ),
    ("jacobi_inside_sloped", "log_u", 64): (
        "-0x1.00c52d0ef0179p+0 0x1.2e0a6a344dff1p+0 0x1.c85ad97bc94a7p-1 0x1.677c4fa3fa976p+1 "
        "nan nan -0x1.2947e1d8fbff0p+1 0x1.859d87c38d20bp+0 -0x1.26a2455175860p+1 "
        "0x1.f973be98d4a44p+0"
    ),
    ("jacobi_inside_sloped", "log_u", 128): (
        "-0x1.00c52d0ef0179p+0 0x1.2e0a6a344dff1p+0 0x1.c85ad97bc94a9p-1 0x1.677c4fa3fa970p+1 "
        "nan nan -0x1.2947e1d8fbfeep+1 0x1.859d87c38d20cp+0 -0x1.26a245517585ep+1 "
        "0x1.f973be98d4a46p+0"
    ),
}

# float.hex of the fitted-exponent column _sweep returns with those rows:
# the power law fitted on an end panel at a requested point, nan elsewhere
_FIT_BITS = {
    ("cir_to_0", "log_p", 64): "nan -0x1.33332e4eeb912p-1",
    ("cir_to_0", "log_p", 128): "nan -0x1.33333331702e8p-1",
    ("cir_to_0", "log_v", 64): "nan -0x1.33395ac3eda6ap-1",
    ("cir_to_0", "log_v", 256): "nan -0x1.3333333336ad6p-1",
    ("cir_to_0", "log_u", 64): "nan -0x1.3347b5fca35b1p-1",
    ("cir_to_0", "log_u", 256): "nan -0x1.333333333e7e3p-1",
    ("jacobi_to_0", "log_p", 64): "nan -0x1.33332fe5e93f9p-2",
    ("jacobi_to_0", "log_p", 128): "nan -0x1.3333333202ca2p-2",
    ("jacobi_to_0", "log_v", 64): "nan -0x1.3526a9fd2fefap-2",
    ("jacobi_to_0", "log_v", 256): "nan -0x1.33334a0473de6p-2",
    ("jacobi_to_0", "log_u", 64): "nan -0x1.3728c7a538515p-2",
    ("jacobi_to_0", "log_u", 256): "nan -0x1.3333612bb899ap-2",
    ("power_across_0", "log_p", 64): "nan nan",
    ("power_across_0", "log_p", 128): "nan nan",
    ("power_across_0", "log_v", 64): "nan nan",
    ("power_across_0", "log_v", 128): "nan nan",
    ("power_across_0", "log_u", 64): "nan nan",
    ("power_across_0", "log_u", 128): "nan nan",
    ("custom_cir", "log_p", 64): "nan nan",
    ("custom_cir", "log_p", 128): "nan nan",
    ("custom_cir", "log_v", 64): "nan nan",
    ("custom_cir", "log_v", 128): "nan nan",
    ("custom_cir", "log_u", 64): "nan nan",
    ("custom_cir", "log_u", 128): "nan nan",
    ("power_graded", "log_p", 64): "nan nan",
    ("power_graded", "log_p", 128): "nan nan",
    ("power_graded", "log_v", 64): "nan nan",
    ("power_graded", "log_v", 128): "nan nan",
    ("power_graded", "log_u", 64): "nan nan",
    ("power_graded", "log_u", 128): "nan nan",
    ("cir_inside", "log_p", 64): "nan nan",
    ("cir_inside", "log_p", 128): "nan nan",
    ("cir_inside", "log_v", 64): "nan nan",
    ("cir_inside", "log_v", 128): "nan nan",
    ("cir_inside", "log_u", 64): "nan nan",
    ("cir_inside", "log_u", 128): "nan nan",
    ("cir_inside_sloped", "log_p", 64): "nan nan",
    ("cir_inside_sloped", "log_p", 128): "nan nan",
    ("cir_inside_sloped", "log_v", 64): "nan nan",
    ("cir_inside_sloped", "log_v", 128): "nan nan",
    ("cir_inside_sloped", "log_u", 64): "nan nan",
    ("cir_inside_sloped", "log_u", 128): "nan nan",
    ("jacobi_inside", "log_p", 64): "nan nan",
    ("jacobi_inside", "log_p", 128): "nan nan",
    ("jacobi_inside", "log_v", 64): "nan nan",
    ("jacobi_inside", "log_v", 128): "nan nan",
    ("jacobi_inside", "log_u", 64): "nan nan",
    ("jacobi_inside", "log_u", 128): "nan nan",
    ("jacobi_inside_sloped", "log_p", 64): "nan nan",
    ("jacobi_inside_sloped", "log_p", 128): "nan nan",
    ("jacobi_inside_sloped", "log_v", 64): "nan nan",
    ("jacobi_inside_sloped", "log_v", 128): "nan nan",
    ("jacobi_inside_sloped", "log_u", 64): "nan nan",
    ("jacobi_inside_sloped", "log_u", 128): "nan nan",
}


def _hex(values):
    return " ".join(float(v).hex() for v in np.ravel(values))


@pytest.mark.parametrize("leg", list(_pinned_legs()))
def test_sweep_rows_are_pinned_to_the_bit(leg):
    ctx, xs, series_terms = _pinned_legs()[leg]
    for field in ("log_p", "log_v", "log_u"):
        n_terms = series_terms if field == "log_u" else 1
        sweep, effort = _stabilized(ctx, xs, field, n_terms=n_terms)
        converged = effort["base_panels"]
        for n in (64, converged):
            got, fit = _sweep(ctx, xs, (n,), field, n_terms=n_terms)
            assert _hex(got) == _SWEEP_BITS[leg, field, n], (field, n)
            assert _hex(fit) == _FIT_BITS[leg, field, n], (field, n)
        assert _hex(sweep) == _SWEEP_BITS[leg, field, converged], field


# float.hex of the _Sweep rows and fitted exponents of a sampled limit's
# sweeps on the CIR leg of cir_to_0 (K = e^-t): 12 approach points toward
# each side (the left with one repeated), run outward in chunks of 1, 2, 4,
# ... requested points until log v reaches stop; later points read nan
_SAMPLED_BITS = {
    ("left", 64): (
        "-0x1.95885804e8838p+0 -0x1.15885804e8838p+1 -0x1.204c84075cc54p+1 "
        "-0x1.204c84075cc54p+1 -0x1.0b10b009d1070p+1 -0x1.cba9b8188a91ap+0 "
        "-0x1.7132101d73152p+0 -0x1.0eba68225b98ap+0 -0x1.5085804e88384p-1 "
        "-0x1.fe58c16164fe0p-3 0x1.4d647e7756e60p-3 0x1.27486f9404b28p-1 0x1.fbb7bf8a33ab8p-1 "
        "0x1.46696d9c86a17p-1 0x1.e8dc3cdf67f63p+0 0x1.4ad10ba330adcp+1 0x1.4ad10ba330adcp+1 "
        "0x1.7bad92ae70265p+1 0x1.98600d348f76cp+1 0x1.a9bc2c7cc80b3p+1 0x1.b47c5dbf32315p+1 "
        "nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan "
        "-0x1.9e635cca1ec1fp+0 -0x1.820d9aae3a402p-1 -0x1.47f2f44ac1b01p-2 "
        "-0x1.47f2f44ac1b01p-2 -0x1.97beb41b5acdap-5 0x1.121da706bcc24p-3 "
        "0x1.0deee3c93f452p-2 0x1.6ddcdcf268cfap-2 nan nan nan nan nan -0x1.9e635cca1ec1fp+0 "
        "-0x1.820d9aae3a402p-1 -0x1.47f2f44ac1b01p-2 -0x1.47f2f44ac1b01p-2 "
        "-0x1.97beb41b5acdap-5 0x1.121da706bcc24p-3 0x1.0deee3c93f452p-2 0x1.6ddcdcf268cfap-2 "
        "nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan"
    ),
    ("left", 128): (
        "-0x1.95885804e8838p+0 -0x1.15885804e8838p+1 -0x1.204c84075cc54p+1 "
        "-0x1.204c84075cc54p+1 -0x1.0b10b009d1070p+1 -0x1.cba9b8188a91ap+0 "
        "-0x1.7132101d73152p+0 -0x1.0eba68225b98ap+0 -0x1.5085804e88384p-1 "
        "-0x1.fe58c16164fe0p-3 0x1.4d647e7756e60p-3 0x1.27486f9404b28p-1 0x1.fbb7bf8a33ab8p-1 "
        "0x1.46696d9c86a15p-1 0x1.e8dc3cdf67f62p+0 0x1.4ad10ba330adcp+1 0x1.4ad10ba330adcp+1 "
        "0x1.7bad92ae70264p+1 0x1.98600d348f76bp+1 0x1.a9bc2c7cc80b3p+1 0x1.b47c5dbf32315p+1 "
        "nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan "
        "-0x1.9e635cca1ec23p+0 -0x1.820d9aae3a406p-1 -0x1.47f2f44ac1b03p-2 "
        "-0x1.47f2f44ac1b03p-2 -0x1.97beb41b5acf8p-5 0x1.121da706bcc1cp-3 "
        "0x1.0deee3c93f44ep-2 0x1.6ddcdcf268cf7p-2 nan nan nan nan nan -0x1.9e635cca1ec23p+0 "
        "-0x1.820d9aae3a406p-1 -0x1.47f2f44ac1b03p-2 -0x1.47f2f44ac1b03p-2 "
        "-0x1.97beb41b5acf8p-5 0x1.121da706bcc1cp-3 0x1.0deee3c93f44ep-2 0x1.6ddcdcf268cf7p-2 "
        "nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan"
    ),
    ("right", 64): (
        "0x1.d5d033a660c58p+2 0x1.e1194a7016236p+3 0x1.eae819d33062cp+4 0x1.f2668c2536805p+5 "
        "0x1.f79bbee9bfe22p+6 0x1.fafda0d3b9f39p+7 0x1.fd1588668b249p+8 0x1.fe55d4b993b53p+9 "
        "0x1.ff105f97a30bcp+10 0x1.ff7ae5a1d2d5ep+11 0x1.ffb6cc89635e4p+12 "
        "0x1.ffd812d43770bp+13 -0x1.77761cfe02ed7p+0 -0x1.77673a70c2644p+0 "
        "-0x1.77673962d61b5p+0 nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan "
        "nan nan nan nan nan nan 0x1.4f09a08faad0cp+2 0x1.9d066334882fap+3 "
        "0x1.c8a1722b7c9e3p+4 nan nan nan nan nan nan nan nan nan 0x1.4f09a08faad0cp+2 "
        "0x1.9d066334882fap+3 0x1.c8a1722b7c9e3p+4 nan nan nan nan nan nan nan nan nan nan "
        "nan nan nan nan nan nan nan nan nan nan nan"
    ),
    ("right", 128): (
        "0x1.d5d033a660c58p+2 0x1.e1194a7016236p+3 0x1.eae819d33062cp+4 0x1.f2668c2536805p+5 "
        "0x1.f79bbee9bfe22p+6 0x1.fafda0d3b9f39p+7 0x1.fd1588668b249p+8 0x1.fe55d4b993b53p+9 "
        "0x1.ff105f97a30bcp+10 0x1.ff7ae5a1d2d5ep+11 0x1.ffb6cc89635e4p+12 "
        "0x1.ffd812d43770bp+13 -0x1.77761cfe02edbp+0 -0x1.77673a70c2648p+0 "
        "-0x1.77673962d61b7p+0 nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan "
        "nan nan nan nan nan nan 0x1.4f09a08faad0cp+2 0x1.9d066334882f9p+3 "
        "0x1.c8a1722b7c9e2p+4 nan nan nan nan nan nan nan nan nan 0x1.4f09a08faad0cp+2 "
        "0x1.9d066334882f9p+3 0x1.c8a1722b7c9e2p+4 nan nan nan nan nan nan nan nan nan nan "
        "nan nan nan nan nan nan nan nan nan nan nan"
    ),
}


@pytest.mark.parametrize("side", ["left", "right"])
def test_sampled_sweep_rows_are_pinned_to_the_bit(side):
    ctx = _pinned_legs()["cir_to_0"][0]
    xs = ctx._approach(side, 12, "steps")
    xs, stop = (xs[:3] + xs[2:], 0.0) if side == "left" else (xs, math.log(1e12))
    sweep, effort = _stabilized(ctx, xs, "log_v", stop=stop)
    converged = effort["base_panels"]
    for n in (64, converged):
        got, fit = _sweep(ctx, xs, (n,), "log_v", stop)
        assert _hex([*got, fit]) == _SAMPLED_BITS[side, n], n
    assert _hex(sweep) == _hex(got)


@st.composite
def _refine_cases(draw):
    # (context, panel edges outward from c, inner, singular points) for one
    # leg of a drawn model, kernel and target, gridded as _sweep grids it
    pos = st.floats(0.2, 3.0)
    kernel = draw(st.sampled_from([ConstantKernel(1.0), SumOfExponentialsKernel([1.0], [1.0])]))
    kind = draw(st.sampled_from(["cir", "jacobi", "power", "custom"]))
    if kind == "cir":
        model = CIRModel(draw(pos), draw(st.floats(0.05, 3.0)), draw(pos), 1.0)
    elif kind == "jacobi":
        model = JacobiModel(0.0, 1.0, draw(pos), draw(st.floats(0.1, 0.9)), draw(pos), 0.5)
    elif kind == "power":
        model = PowerModel(draw(st.floats(1.1, 2.5)), draw(st.floats(0.0, 0.9)), draw(pos), 1.0)
    else:
        kappa, theta, sigma = draw(pos), draw(pos), draw(pos)
        model = CustomModel(lambda x: kappa * (theta - x), lambda x: sigma * np.sqrt(x),
                            (0.0, math.inf), 1.0)
    ctx = ScaleContext(model, kernel)
    c, (l, r) = ctx.c, model.interval
    boundary = draw(st.sampled_from([l, r]))
    if math.isfinite(boundary):
        x = boundary + (c - boundary) * draw(st.just(0.0) | st.floats(0.0, 0.9))
    else:
        x = c + math.copysign(2.0 ** draw(st.floats(-2.0, 8.0)), boundary)
    lo, hi = min(c, x), max(c, x)
    ends = tuple(s for s in (l, r, *ctx._interior_singularities()) if lo <= s <= hi)
    edges = np.unique(np.concatenate([ctx._edges(lo, hi, draw(st.sampled_from([64, 256]))),
                                      [x, *ends]]))
    return ctx, (edges if x > c else edges[::-1]), draw(st.booleans()), ends


@settings(max_examples=40)
@given(case=_refine_cases())
def test_refine_tiles_the_leg_and_resolves_every_open_panel(case):
    ctx, edges, inner, ends = case
    with np.errstate(invalid="ignore", divide="ignore"):
        seg, shifts = np.zeros(len(edges) - 1, dtype=np.intp), ctx._side_shift(edges[-1:])
        a, b, vals, flagged, _ = ctx._refine(edges[:-1], edges[1:], inner, ends, seg, shifts)
        again = ctx._node_values(a, b, inner, ends, np.zeros(len(a), dtype=np.intp), shifts)
    assert a[0] == edges[0] and b[-1] == edges[-1]
    assert np.array_equal(b[:-1], a[1:])
    for got, want in zip(vals[:2], again[:2]):
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got, want, equal_nan=True)
    # a custom model's change of E per panel is a BLAS matrix-vector
    # product, which rounds a row by its position in the call
    assert (vals[2] is None) == (again[2] is None)
    if vals[2] is not None:
        assert np.allclose(vals[2], again[2], rtol=1e-13, atol=1e-13 * np.max(np.abs(again[2])))
    e, log_sig, _ = vals
    spread = np.ptp(e, axis=1)
    if inner:
        spread = np.maximum(spread, np.ptp(-e - log_sig, axis=1))
    assert np.all(spread[~flagged] <= _NAT)
    touches = np.isin(a, ends) | np.isin(b, ends)
    assert np.all(touches[flagged] | ~(spread[flagged] <= _NAT))


@st.composite
def _batched_cases(draw):
    # (context, points, field, stop, series terms) for one leg of a drawn
    # model, kernel and shifts, on the points' side of c
    pos = st.floats(0.2, 3.0)
    kernel = draw(st.sampled_from([ConstantKernel(1.0), SumOfExponentialsKernel([1.0], [1.0])]))
    kind = draw(st.sampled_from(["cir", "jacobi", "power", "custom"]))
    if kind == "cir":
        model = CIRModel(draw(pos), draw(st.floats(0.05, 3.0)), draw(pos), 1.0)
    elif kind == "jacobi":
        model = JacobiModel(0.0, 1.0, draw(pos), draw(st.floats(0.1, 0.9)), draw(pos), 0.5)
    elif kind == "power":
        model = PowerModel(draw(st.floats(1.1, 2.5)), draw(st.floats(0.0, 0.9)), draw(pos), 1.0)
    else:
        kappa, theta, sigma = draw(pos), draw(pos), draw(pos)
        model = CustomModel(lambda x: kappa * (theta - x), lambda x: sigma * np.sqrt(x),
                            (0.0, math.inf), 1.0)
    shift = st.floats(-2.0, 2.0)
    ctx = ScaleContext(model, kernel, beta=draw(shift), gamma=draw(shift))
    c, boundary = ctx.c, draw(st.sampled_from(model.interval))
    if math.isfinite(boundary):
        fracs = st.just(0.0) | st.floats(1e-6, 0.9)
        xs = [boundary + (c - boundary) * f for f in draw(st.lists(fracs, min_size=1, max_size=4))]
    else:
        powers = st.lists(st.floats(-2.0, 8.0), min_size=1, max_size=4)
        xs = [c + math.copysign(2.0**k, boundary) for k in draw(powers)]
    field, n_terms = draw(st.sampled_from(["log_p", "log_v", "log_u"])), draw(st.integers(1, 3))
    # no stop, any stop, or a value the 64-panel pass reaches exactly, which
    # the 128-panel pass may miss and run on past
    row = getattr(_sweep(ctx, xs, (64,), field, n_terms=n_terms)[0], field)[0]
    stop = draw(st.sampled_from([math.inf, *(float(v) for v in row if math.isfinite(v))])
                | st.floats(-1.0, 3.0))
    return ctx, xs, field, stop, n_terms


@settings(max_examples=60)
@given(case=_batched_cases())
@example(case=(ScaleContext(CIRModel(1.0, 0.5, 1.0, 1.0), ConstantKernel(1.0)),
               [2.0, 2.0 + 1e-9], "log_u", math.inf, 3))
@example(case=(*_pinned_legs()["power_graded"][:2], "log_u", math.inf, 3))
@example(case=(*_pinned_legs()["cir_to_0"][:2], "log_v", math.inf, 1))
def test_first_two_rounds_in_one_pass_match_each_round_alone(case):
    # _stabilized sweeps 64 and 128 base panels in one pass, and the passes
    # of a chunk integrate in batches; every row and fitted exponent must be
    # the one the round gives alone, to the bit.  The examples: a chunk of
    # one panel per pass (a one-row BLAS product rounds apart), a leg with
    # graded panels, and an end panel at a singular point
    ctx, xs, field, stop, n_terms = case
    both = _sweep(ctx, xs, (64, 128), field, stop, n_terms)
    for i, n in enumerate((64, 128)):
        alone = _sweep(ctx, xs, (n,), field, stop, n_terms)
        for got, want in zip(both, alone):
            got, want = np.asarray(got)[..., i, :], np.asarray(want)[..., 0, :]
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, field)


@st.composite
def _other_side_shift_cases(draw):
    # (model, kernel, x, shift on x's side of c, two shifts for the other
    # side) for a drawn built-in model or its custom clone, K = 1 or e^-t
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
    c, boundary = model.x0, draw(st.sampled_from(model.interval))
    if math.isfinite(boundary):
        x = boundary + (c - boundary) * draw(st.floats(0.05, 0.95))
    else:
        x = c + math.copysign(2.0 ** draw(st.floats(-2.0, 4.0)), boundary)
    shift = st.floats(-2.0, 2.0)
    others = draw(st.lists(shift, min_size=2, max_size=2, unique=True))
    return model, kernel, x, draw(shift), others


def _read_or_error(read, x):
    # float.hex of read(x), or its NumericError's message
    try:
        return read(x).hex()
    except NumericError as exc:
        return str(exc)


@settings(max_examples=30)
@given(case=_other_side_shift_cases())
def test_a_leg_sees_only_the_shift_on_its_side_of_c(case):
    # left of c only beta enters E, right of c only gamma: every value at x
    # is the same to the bit whatever the other side's shift
    model, kernel, x, own, others = case
    reads = []
    for other in others:
        shifts = (own, other) if x < model.x0 else (other, own)
        ctx = ScaleContext(model, kernel, beta=shifts[0], gamma=shifts[1])
        reads.append([_read_or_error(read, x) for read in
                      (ctx.v, ctx.scale, ctx.v_prime, lambda y: ctx.u_series(y, 3))])
    assert reads[0] == reads[1]


def test_refine_effort_on_a_large_leg_is_pinned(monkeypatch, sloped_kernel):
    # the last stage of a staged sufficient test: x = c + 256 under shift -x.
    # Halving rounds measure only the panels still open; measuring every
    # panel of every round would pass many times as many to _node_values
    model = CIRModel(1.0, 0.9, 1.0, 0.82)
    x = model.x0 + 256.0
    ctx = ScaleContext(model, sloped_kernel, beta=-x, gamma=-x)
    measured, node_values = [], ScaleContext._node_values

    def counted(self, a, *rest):
        measured.append(len(a))
        return node_values(self, a, *rest)

    monkeypatch.setattr(ScaleContext, "_node_values", counted)
    for n_panels, want in ((64, (93, 6391, 3242)), (128, (189, 6447, 3318))):
        measured.clear()
        edges = ctx._edges(ctx.c, x, n_panels)
        with np.errstate(invalid="ignore", divide="ignore"):
            seg = np.zeros(len(edges) - 1, dtype=np.intp)
            a = ctx._refine(edges[:-1], edges[1:], True, (), seg, ctx._side_shift(edges[-1:]))[0]
        assert (len(edges) - 1, sum(measured), len(a)) == want


# ----------------------------------------------------------------- u-series


def test_u_series_constant_coefficient_anchor():
    # b = 0, sig~ = 1 on R: u'' = 2u, u(0)=1, u'(0)=0 -> u(1) = cosh(sqrt 2)
    m = CustomModel(
        lambda x: np.zeros_like(x),
        lambda x: np.ones_like(x),
        (-math.inf, math.inf),
        0.0,
    )
    ctx = ScaleContext(m, ConstantKernel(1.0), c=0.0)
    assert ctx.u_series(1.0, n_terms=12) == pytest.approx(math.cosh(math.sqrt(2.0)), rel=1e-9)


@pytest.mark.parametrize("x, n_terms", [(10.0, 20), (30.0, 40)])
def test_u_series_many_terms_match_the_cosh_partial_sums(x, n_terms, unit_kernel):
    # next to c the high terms, ~ (y - c)^2k, are beyond the panels'
    # 12-node interpolant; what they lose there must stay negligible
    m = CustomModel(lambda y: np.zeros_like(y), lambda y: np.ones_like(y),
                    (-math.inf, math.inf), 0.0)
    want = math.fsum((2.0 * x * x) ** k / math.factorial(2 * k) for k in range(n_terms + 1))
    u = ScaleContext(m, unit_kernel, c=0.0).u_series(x, n_terms)
    assert u == pytest.approx(want, rel=1e-12)


def test_u_series_sandwich(cir_ctx):
    for x in [0.4, 0.9, 1.3, 2.0]:
        v = cir_ctx.v(x)
        u = cir_ctx.u_series(x, n_terms=8)
        assert 1.0 + v <= u * (1.0 + 1e-12) + 1e-12
        assert u <= math.exp(v) * (1.0 + 1e-12)


def test_u_series_at_base_is_one(cir_ctx):
    assert cir_ctx.u_series(1.0) == pytest.approx(1.0, abs=1e-15)


def _u_ode_oracle(ctx, x, n_terms=8):
    # the terms solve (1/2) sigma~^2 u_k'' + b~_c u_k' = u_(k-1) with
    # u_k(c) = u_k'(c) = 0 and u_0 = 1
    def rhs(t, y):
        u, du = y[:n_terms], y[n_terms:]
        prev = np.concatenate([[1.0], u[:-1]])
        drift, var = float(ctx.b_tilde_shifted(t)), float(ctx.sigma_tilde_sq(t))
        return np.concatenate([du, 2.0 * (prev - drift * du) / var])

    sol = solve_ivp(rhs, (ctx.c, x), np.zeros(2 * n_terms), method="DOP853",
                    rtol=1e-12, atol=1e-30)
    assert sol.success
    return 1.0 + sol.y[:n_terms, -1].sum()


def _check_series_bounds(ctx, x):
    # 1 + v <= u <= e^v at 8 terms, and the first term is v itself
    v = ctx.v(x)
    u = ctx.u_series(x, 8)
    assert 1.0 + v <= u * (1.0 + 1e-9)
    if v < 700.0:  # beyond, e^v overflows
        assert u <= math.exp(v) * (1.0 + 1e-9)
    assert ctx.u_series(x, 1) == 1.0 + v


@pytest.mark.parametrize("case", ["cir_near_zero", "cir_right", "cir_shifted",
                                  "jacobi_near_b", "jacobi_shifted"])
def test_u_series_matches_ode_oracle(case, cir_111, unit_kernel, sloped_kernel):
    jac = JacobiModel(0.0, 1.0, 1.5, 0.5, 0.55, 0.5)
    ctx, x = {
        "cir_near_zero": (ScaleContext(cir_111, unit_kernel), 1e-3),
        "cir_right": (ScaleContext(cir_111, unit_kernel), 2.5),
        "cir_shifted": (ScaleContext(CIRModel(1.2, 0.6, 0.85, 0.8), sloped_kernel,
                                     beta=-0.5, gamma=0.7), 1.8),
        # u of order 1e5 near b, where a uniform 2049-point grid is 2e-9 off
        "jacobi_near_b": (ScaleContext(jac, sloped_kernel), 0.9),
        "jacobi_shifted": (ScaleContext(jac, sloped_kernel, beta=0.3, gamma=-0.4), 0.1),
    }[case]
    assert ctx.u_series(x, 8) == pytest.approx(_u_ode_oracle(ctx, x), rel=1e-10)
    _check_series_bounds(ctx, x)


def test_u_series_raises_when_it_does_not_converge(cir_111, unit_kernel):
    # one round of 64 panels leaves nothing to compare it with
    ctx = ScaleContext(cir_111, unit_kernel, max_panels=64)
    with pytest.raises(NumericError, match="series") as err:
        ctx.u_series(0.5)
    assert err.value.details["x"] == 0.5
    assert math.isfinite(err.value.details["last_log_value"])


@settings(max_examples=40)
@given(
    jacobi=st.booleans(),
    sloped=st.booleans(),
    kappa=st.floats(0.2, 3.0),
    level=st.floats(0.05, 0.95),
    sigma=st.floats(0.2, 2.0),
    base=st.floats(0.05, 0.95),
    frac=st.floats(0.001, 0.999),
)
def test_u_series_sandwich_over_cir_and_jacobi(jacobi, sloped, kappa, level, sigma, base, frac):
    # Jacobi on (0, 1); CIR with theta, c and x scaled to (0, 4), (0, 4) and (0, 8)
    kernel = SumOfExponentialsKernel([1.0], [1.0]) if sloped else ConstantKernel(1.0)
    if jacobi:
        ctx, x = ScaleContext(JacobiModel(0.0, 1.0, kappa, level, sigma, base), kernel), frac
    else:
        ctx, x = ScaleContext(CIRModel(kappa, 4.0 * level, sigma, 4.0 * base), kernel), 8.0 * frac
    _check_series_bounds(ctx, x)


@pytest.mark.parametrize("model, x, want", [
    (PowerModel(2.0, 0.0, 1.0, 0.5), 64.5, 3.2891676592018158),
    (PowerModel(1.2, 0.5, 1.0, 1.0), 513.0, 27.778946302901996),
], ids=["alpha=2", "alpha=1.2"])
def test_u_series_on_graded_panels_matches_ode_oracle(model, x, want, unit_kernel):
    # legs whose inner integrands span hundreds of nats across a panel after
    # every halving: each term's inner integral takes the graded sub-panels;
    # the pinned values are _u_ode_oracle's (7-15 s per point)
    ctx = ScaleContext(model, unit_kernel)
    assert ctx.u_series(x, 8) == pytest.approx(want, rel=1e-10)
    _check_series_bounds(ctx, x)


@pytest.mark.parametrize("x", [-1.0, -0.3, 0.0])
def test_u_series_across_interior_zero_of_sigma(x, unit_kernel):
    # the leg from c = 1 crosses sigma's zero at 0, where the end panels
    # integrate fitted power laws; u(-1) agrees with a DOP853 solution of
    # the terms' equations run across 0 to 2e-13
    ctx = ScaleContext(PowerModel(1.5, 0.5, 1.0, 1.0), unit_kernel)
    _check_series_bounds(ctx, x)
    if x == -1.0:
        assert ctx.u_series(x, 8) == pytest.approx(45.865884714617, rel=1e-9)


# ----------------------------------------------------------- boundary limits


def test_cir_left_limit_exponent_rule(unit_kernel):
    # v_1(0+) diverges iff 2 kappa theta / sigma^2 >= 1 for K == 1
    div = ScaleContext(CIRModel(1.0, 1.0, 1.0, 1.0), unit_kernel)
    res = div.boundary_limit("left")
    assert res.kind == "divergent"
    assert res.evidence["exponent"] == pytest.approx(2.0)

    fin = ScaleContext(CIRModel(1.0, 0.125, 1.0, 1.0), unit_kernel)
    res = fin.boundary_limit("left")
    assert res.kind == "finite"
    assert res.evidence["exponent"] == pytest.approx(0.25)
    assert math.isfinite(res.value)


def test_cir_right_limit_always_divergent(cir_ctx):
    assert cir_ctx.boundary_limit("right").kind == "divergent"


def test_power_right_limit_of_v_is_finite_for_every_alpha_above_one(unit_kernel):
    grows = ScaleContext(PowerModel(2.0, 0.5, 1.0, 1.0), unit_kernel)
    res = grows.boundary_limit("right", target="v")
    assert res.kind == "finite"
    assert res.evidence["rule"] == "alpha > 1"
    # v' ~ 1 / (K0 y^alpha) whatever delta, so alpha <= 1 + delta is finite too
    tame = ScaleContext(PowerModel(1.2, 0.5, 1.0, 1.0), unit_kernel)
    assert tame.boundary_limit("right", target="v").kind == "finite"
    assert tame.boundary_limit("left", target="v").kind == "divergent"
    # v' ~ y^-1.02: the sampled classifier's increment ratio is 0.988, which
    # it reads as divergence; 'auto' takes the closed rule instead
    slow = ScaleContext(PowerModel(1.02, 0.5, 1.0, 1.0), unit_kernel)
    res = slow.boundary_limit("right", target="v")
    assert (res.kind, res.method) == ("finite", "closed")
    assert res.evidence == {"rule": "alpha > 1", "alpha": 1.02, "delta": 0.5}


@settings(max_examples=10, deadline=None)
@given(alpha=st.floats(1.01, 2.0), delta=st.floats(0.0, 0.95),
       sigma=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
       kernel=st.just(ConstantKernel(1.0))
       | st.builds(lambda w, r: SumOfExponentialsKernel([w], [r]),
                   st.floats(0.5, 2.0), st.floats(0.0, 5.0)),
       gamma=st.floats(-3.0, 1.0))
def test_power_v_prime_tends_to_one_over_the_shifted_drift(alpha, delta, sigma, kernel, gamma):
    # the premise of PowerModel's rule at +inf: p' decays superexponentially,
    # so v'(y) b~_c(y) -> 1, and v' ~ 1 / (K0 y^alpha) is integrable for
    # every alpha > 1.  Draws keep K0 y^alpha above the shift terms and the
    # expansion's next term, b~' sigma~^2 / (2 b~^2), small at y = 2^12
    x = 2.0**12
    ctx = ScaleContext(PowerModel(alpha, delta, sigma, 1.0), kernel, gamma=gamma)
    k0, ratio = ctx.k0, ctx.kprime0 / ctx.k0
    assume(k0 * x ** (alpha - 1.0) >= 8.0 * abs(ratio) * (1.0 + abs(gamma) / x))
    assume(k0 * alpha * sigma**2 * x ** (delta - alpha - 1.0) / 2.0 <= 2e-3)
    assert ctx.v_prime(x) * float(ctx.b_tilde_shifted(x)) == pytest.approx(1.0, rel=1e-2)


def test_built_in_limits_never_sample_or_classify_a_sweep(monkeypatch, unit_kernel,
                                                          sloped_kernel):
    # 'auto' returns a built-in model's closed rule at every end; a finite
    # closed limit at a finite end only takes its value from a sweep
    sampled, swept = [], []
    run_swept = ScaleContext._swept_limit

    def counted_swept(self, boundary, target):
        swept.append((self.model, boundary, target))
        return run_swept(self, boundary, target)

    monkeypatch.setattr(ScaleContext, "_sampled_limit", lambda *args: sampled.append(args))
    monkeypatch.setattr(ScaleContext, "_swept_limit", counted_swept)
    models = [CIRModel(1.0, 0.125, 1.0, 1.0), CIRModel(1.0, 1.0, 1.0, 1.0),
              JacobiModel(0.0, 1.0, 1.0, 0.5, 1.0, 0.5), JacobiModel(0.0, 1.0, 0.2, 0.5, 1.0, 0.5),
              PowerModel(1.02, 0.5, 1.0, 1.0), PowerModel(2.0, 0.0, 1.0, 0.5)]
    want_swept = []
    for model in models:
        for kernel in (unit_kernel, sloped_kernel):
            for which in ("left", "right"):
                for target in ("v", "p"):
                    res = ScaleContext(model, kernel).boundary_limit(which, target)
                    assert res.kind in ("finite", "divergent") and res.method == "closed", res
                    boundary = model.interval[0 if which == "left" else 1]
                    if res.kind == "finite" and math.isfinite(boundary):
                        want_swept.append((model, boundary, target))
    assert sampled == [] and swept == want_swept and len(want_swept) > 0


def test_power_right_limit_of_p_is_finite_closed_and_sampled(unit_kernel):
    # p' decays superexponentially toward +inf: the closed rule calls |p|
    # finite without a value, and the sampled increments fall below 1e-11
    # of the value, which ends sampling with tail_relative 0
    ctx = ScaleContext(PowerModel(2.0, 0.0, 1.0, 0.5), unit_kernel)
    closed = ctx.boundary_limit("right", target="p")
    assert (closed.kind, closed.value, closed.method) == ("finite", None, "closed")
    assert closed.evidence == {"reason": "p' decays superexponentially toward +inf"}
    sampled = ctx.boundary_limit("right", target="p", method="sample")
    assert (sampled.kind, sampled.method) == ("finite", "sample")
    assert sampled.evidence["tail_relative"] == 0.0
    assert sampled.value == pytest.approx(0.5786457195014162, rel=1e-15)
    oracle = quad(ctx.scale_derivative, ctx.c, math.inf, epsabs=1e-14, epsrel=1e-13, limit=200)
    assert sampled.value == pytest.approx(oracle[0], rel=1e-12)


def test_sampled_divergence_on_custom_model():
    # b = 0, sig = 1 on R: v(x) = x^2, divergent at +inf
    m = CustomModel(lambda x: np.zeros_like(x), lambda x: np.ones_like(x), (-math.inf, math.inf), 0.0)
    ctx = ScaleContext(m, ConstantKernel(1.0))
    assert ctx.v(3.0) == pytest.approx(9.0, rel=1e-9)
    assert ctx.boundary_limit("right", method="sample").kind == "divergent"


def test_sampled_limit_agrees_with_closed_on_cir(unit_kernel):
    for theta in [0.125, 1.0]:
        ctx = ScaleContext(CIRModel(1.0, theta, 1.0, 1.0), unit_kernel)
        closed = ctx.boundary_limit("left")
        sampled = ctx.boundary_limit("left", method="sample")
        assert closed.method == "closed"
        assert sampled.kind == closed.kind


def test_sampled_limit_exponent_evaluations_are_bounded(unit_kernel):
    # a cost guard that counts work instead of timing it: one sweep serves
    # all 40 sample points
    counted = []

    class Counting(CIRModel):
        def exponent(self, y, *args):
            counted.append(np.size(y))
            return super().exponent(y, *args)

    ctx = ScaleContext(Counting(1.0, 0.3, 1.0, 1.0), unit_kernel)
    res = ctx.boundary_limit("left", method="sample", steps=40)
    assert res.kind == "finite" and len(res.evidence["points"]) == 40
    assert sum(counted) <= 250_000


def test_sampled_evidence_reports_sweep_effort(unit_kernel):
    for theta in (0.3, 2.0):  # finite, and divergent past the cap
        ctx = ScaleContext(CIRModel(1.0, theta, 1.0, 1.0), unit_kernel)
        ev = ctx.boundary_limit("left", method="sample").evidence
        assert ev["base_panels"] == 64 * 2 ** (ev["doubling_rounds"] - 1)
        assert ev["doubling_rounds"] >= 2
        assert 0.0 <= ev["last_max_delta"] <= ctx.quad_tol
        assert "exponent" not in ev  # the verdict layer keys closed limits on it


def _cir_zero_oracle(ctx):
    # p and v at 0 by scipy quad after y = c u^(1/(1-e)) for p' and
    # z = c w^(1/e) for the inner integrand, which make the power laws
    # y^-e and z^(e-1) of both at 0 smooth: with lin the slope of the
    # linear part of -E, p' dy = c/(1-e) exp(-lin (y - c)) du and
    # dz / (p' sigma~^2) = exp(lin (z - c)) dw / (e (K0 sigma)^2)
    m, c, k0 = ctx.model, ctx.c, ctx.k0
    cc = 2.0 / (k0 * m.sigma) ** 2
    e = cc * (k0 * m.kappa * m.theta + ctx.beta * ctx.kprime0 / k0)
    lin = cc * (ctx.kprime0 / k0 - k0 * m.kappa)

    def inner(y):
        val = quad(lambda w: math.exp(lin * c * (w ** (1.0 / e) - 1.0)), (y / c) ** e, 1.0,
                   epsabs=0.0, epsrel=1e-13, limit=200)[0]
        return val / (e * (k0 * m.sigma) ** 2)

    def outer(u, weight):
        y = c * u ** (1.0 / (1.0 - e))
        return c / (1.0 - e) * math.exp(-lin * (y - c)) * weight(y)

    p = quad(outer, 0.0, 1.0, args=(lambda y: 1.0,), epsabs=0.0, epsrel=1e-13, limit=200)[0]
    v = 2.0 * quad(outer, 0.0, 1.0, args=(inner,), epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return p, v


@pytest.mark.parametrize("expo", [0.3, 0.85, 0.95])
@pytest.mark.parametrize("kernel", ["flat", "exp"])
def test_cir_closed_finite_values_at_zero_match_quad(expo, kernel, unit_kernel, sloped_kernel):
    # 2 kappa theta / (K0 sigma^2) = expo < 1: v and |p| are finite at 0, and
    # the values come from one sweep run to 0 itself
    ctx = ScaleContext(CIRModel(1.0, expo / 2.0, 1.0, 1.0),
                       unit_kernel if kernel == "flat" else sloped_kernel)
    p_want, v_want = _cir_zero_oracle(ctx)
    for target, want in (("p", p_want), ("v", v_want)):
        res = ctx.boundary_limit("left", target=target)
        assert (res.kind, res.method) == ("finite", "closed")
        assert res.value == pytest.approx(want, rel=1e-9)


@settings(max_examples=25)
@given(
    kappa=st.floats(0.2, 3.0),
    sigma=st.floats(0.3, 2.0),
    expo=st.floats(0.05, 0.97),
    c=st.floats(0.2, 2.0),
)
def test_cir_scale_at_zero_matches_quad(kappa, sigma, expo, c):
    # theta is set by the exponent 2 kappa theta / sigma^2 of p' ~ y^-expo
    ctx = ScaleContext(CIRModel(kappa, expo * sigma**2 / (2.0 * kappa), sigma, c),
                       ConstantKernel(1.0))
    res = ctx.boundary_limit("left", target="p")
    assert res.value == pytest.approx(_cir_zero_oracle(ctx)[0], rel=1e-9)


def test_closed_finite_limit_reports_sweep_effort(unit_kernel):
    ctx = ScaleContext(CIRModel(1.0, 0.125, 1.0, 1.0), unit_kernel)
    ev = ctx.boundary_limit("left").evidence
    assert ev["exponent"] == pytest.approx(0.25)
    assert ev["base_panels"] == 64 * 2 ** (ev["doubling_rounds"] - 1)
    assert ev["doubling_rounds"] >= 2
    assert 0.0 <= ev["last_max_delta"] <= ctx.quad_tol
    # a divergent closed limit runs no sweep
    assert "base_panels" not in ctx.boundary_limit("right").evidence


@pytest.mark.parametrize("custom", [False, True], ids=["closed", "custom"])
def test_power_right_sampled_limit_is_pinned(custom, unit_kernel):
    # the sampled classifier's points; the values are those of the
    # per-point quadrature the sweep replaced.  The CustomModel clone
    # reaches graded panels with E from the sweep itself.
    model = PowerModel(1.2, 0.5, 1.0, 1.0)
    if custom:
        model = CustomModel(lambda y: np.abs(y) ** 1.2, lambda y: np.abs(y) ** 0.25,
                            (-math.inf, math.inf), 1.0)
    res = ScaleContext(model, unit_kernel).boundary_limit("right", method="sample")
    assert (res.kind, res.method) == ("inconclusive", "sample")
    want = [0.8137671314613877, 1.2333320537984547, 1.6459742516840865, 2.0342970721781293,
            2.3878195870129546, 2.703141384721984, 2.981163213544757, 3.2247855470039304,
            3.4375782413261438, 3.623136589685793, 3.784811065115711, 3.9256165451512355]
    assert res.evidence["values"] == pytest.approx(want, rel=1e-6)


def test_power_leg_across_interior_zero_is_pinned(unit_kernel):
    # sigma vanishes at 0; the panels touching it integrate fitted power
    # laws.  v is pinned to nested scipy quad values
    ctx = ScaleContext(PowerModel(1.5, 0.5, 1.0, 1.0), unit_kernel)
    assert ctx.v(-1.0) == pytest.approx(13.1842466855599, rel=1e-9)
    assert ctx.v(-0.3) == pytest.approx(3.860375707924967, rel=1e-9)
    assert ctx.scale(-1.0) == pytest.approx(-6.00597813154209, rel=1e-6)


def _power_oracle(ctx, x, what):
    # p(x), v(x) or v'(x) (what = "p", "v", "v'") for PowerModel legs from
    # c > 0 to x <= 0 by nested scipy quad on t = |z|^(1-delta) on each side
    # of 0, where the |z|^-delta factor of the inner integrand and the
    # |z|^(1-delta) terms of E turn smooth; E is written out here, not read
    # from the library
    m, c, k0, kp0 = ctx.model, ctx.c, ctx.k0, ctx.kprime0
    d, cc, ratio = m.delta, 2.0 / (k0 * m.sigma) ** 2, kp0 / k0
    q = 1.0 / (1.0 - d)

    def odd(z, power):
        return math.copysign(abs(z) ** power / power, z)

    def exponent(z):
        shift = ctx.beta if z < c else ctx.gamma
        term = k0 * (odd(z, m.alpha - d + 1.0) - odd(c, m.alpha - d + 1.0))
        term += ratio * (abs(z) ** (2.0 - d) - c ** (2.0 - d)) / (2.0 - d)
        term += ratio * shift * (odd(z, 1.0 - d) - odd(c, 1.0 - d))
        return -cc * term

    def integral(f, lo, hi, singular=False):
        # int_lo^hi f(z) dz, times |z|^-delta if singular, for lo <= 0 < hi,
        # as quads in t: dz = q t^(q-1) dt and |z|^-delta = t^(1-q)
        power = 0.0 if singular else q - 1.0

        def in_t(sign, a, b):
            return quad(lambda t: f(sign * t**q) * q * t**power, a, b,
                        epsabs=0.0, epsrel=1e-13, limit=200)[0]

        total = in_t(1.0, max(lo, 0.0) ** (1.0 - d), hi ** (1.0 - d))
        return total if lo >= 0.0 else total + in_t(-1.0, 0.0, (-lo) ** (1.0 - d))

    def inner(y):  # int_y^c 1 / (p' sigma~^2)
        return integral(lambda z: math.exp(-exponent(z)) / (k0 * m.sigma) ** 2, y, c, True)

    if what == "p":
        return -integral(lambda y: math.exp(exponent(y)), x, c)
    if what == "v'":
        return -2.0 * math.exp(exponent(x)) * inner(x)
    return 2.0 * integral(lambda y: math.exp(exponent(y)) * inner(y), x, c)


@pytest.mark.parametrize("delta", [0.5, 0.75, 0.9])
@pytest.mark.parametrize("kernel", ["flat", "exp_shifted"])
def test_power_leg_ending_at_zero_of_sigma_is_graded(delta, kernel, unit_kernel, sloped_kernel):
    # sigma vanishes at 0, where the panel touching it integrates a fitted
    # power law: legs across 0 and v' at 0 meet quad_tol against nested quad
    if kernel == "flat":
        ctx = ScaleContext(PowerModel(1.5, delta, 1.0, 1.0), unit_kernel)
    else:
        ctx = ScaleContext(PowerModel(1.5, delta, 1.0, 1.0), sloped_kernel, beta=-1.3, gamma=-0.7)
    for x in (-1.0, -0.3):
        assert ctx.v(x) == pytest.approx(_power_oracle(ctx, x, "v"), rel=1e-9)
    assert ctx.v_prime(0.0) == pytest.approx(_power_oracle(ctx, 0.0, "v'"), rel=1e-9)
    if delta == 0.9:  # the oracle's own values, pinned so that a change to it shows
        want = 72.5919443341 if kernel == "flat" else 5.63213217254e22
        assert ctx.v(-1.0) == pytest.approx(want, rel=1e-11)


def test_misfit_end_panel_never_reads_as_divergence(sloped_kernel):
    # delta = 0.99, shifts 1: near 0+ the inner integrand is about
    # exp(200 (1 - y^0.01)) y^-0.99 and near 0- p' is about exp(-200 |y|^0.01),
    # both integrable but steeper than 1/y above |y| ~ 1e-30 (p') and
    # ~ 1e-230 (inner), so end panels that wide fit beta < -1.  Such fits
    # must force more rounds, not settle as an infinite p or v'
    ctx = ScaleContext(PowerModel(1.5, 0.99, 1.0, 1.0), sloped_kernel, beta=1.0, gamma=1.0)
    assert ctx.scale(-1.0) == pytest.approx(_power_oracle(ctx, -1.0, "p"), rel=1e-9)
    with pytest.raises(NumericError):  # the inner law fits only at the 4096-panel floor
        ctx.v_prime(0.0)


def test_sampled_limit_on_custom_model():
    # strong inward drift on a bounded interval: v finite at both ends
    m = CustomModel(lambda x: -x, lambda x: np.ones_like(x), (-5.0, 5.0), 0.0)
    ctx = ScaleContext(m, ConstantKernel(1.0))
    res = ctx.boundary_limit("right", method="sample")
    assert res.kind == "finite"
    with pytest.raises(ValueError, match="unknown method 'closed'"):
        ctx.boundary_limit("right", method="closed")


def test_sampled_limit_that_does_not_stabilize_is_inconclusive(unit_kernel):
    # a custom clone of PowerModel(1.5, 0.5, 1, 1) declares no zero of sigma
    # at 0, so its sweeps toward -inf never agree at x = -1 up to 4096 base
    # panels: the limit is inconclusive with NumericError's details, as a
    # swept limit is, and the necessary test reports it instead of raising
    pm = PowerModel(1.5, 0.5, 1.0, 1.0)
    ctx = ScaleContext(CustomModel(pm.drift, pm.diffusion, pm.interval, 1.0), unit_kernel)
    for target in ("v", "p"):
        lim = ctx.boundary_limit("left", target)
        assert (lim.kind, lim.value, lim.method) == ("inconclusive", None, "sample")
        assert (lim.evidence["x"], lim.evidence["max_panels"]) == (-1.0, 4096)
    label, value, _ = necessary_test(ctx).evidence[0]
    assert label.startswith("v(left+)") and math.isnan(value)


def test_v_next_to_a_finite_endpoint_does_not_overflow():
    # within about 1e-308 of 0, sigma~^2 is subnormal and the graded inner
    # rule's drift scale 2 b~ / sigma~^2 overflowed with a RuntimeWarning
    ctx = ScaleContext(JacobiModel(0, 1, 1, 0.5, 1, 0.5), ConstantKernel(1))
    far = ctx.v(1e-300)
    near = ctx.v(1.1125369292535e-311)
    assert far == pytest.approx(689.389, abs=1e-3)
    assert math.isfinite(near) and near > far


def test_v_on_a_wide_negative_leg_matches_nested_quad():
    # the leg [-1, -0.05] takes _edges' geometric panels on the negative side;
    # the value is nested scipy quad's
    ctx = ScaleContext(PowerModel(1.5, 0.0, 1.0, -0.05), ConstantKernel(1.0))
    assert ctx.v(-1.0) == pytest.approx(1.19251346180281, rel=10 * ctx.quad_tol)


def test_graded_inner_integral_with_unit_weight_is_pinned(unit_kernel):
    # drift 1/x^2, sigma = 1 on (0, 1), c = 0.5: p' = e^(2/y - 4), so toward 0
    # v's inner integrand spans thousands of nats per panel and v's sweep
    # takes graded panels, under the weight u_0 = 1.  The end panel's fitted
    # exponent reads their integrals; it is pinned to the bit
    m = CustomModel(lambda x: 1.0 / x**2, np.ones_like, (0.0, 1.0), 0.5)
    lim = ScaleContext(m, unit_kernel).boundary_limit("left", "v")
    assert (lim.kind, lim.method) == ("divergent", "sweep")
    ev = lim.evidence
    assert (ev["base_panels"], ev["doubling_rounds"]) == (128, 2)
    assert ev["fitted_exponent"].hex() == "-0x1.4fbfb944d295ap+38"
    assert ev["fitted_exponent_change"].hex() == "-0x1.4f46ca6d825c6p+38"


def test_custom_halving_rounds_are_pinned_to_the_bit(unit_kernel):
    # a custom model's E changes are BLAS products, which round a row by its
    # place in the call; halved panels enter them first halves, then second
    # halves.  A sampled right limit of a CIR clone that halves, to the bit
    m = CustomModel(lambda x: 0.5 - x, lambda x: 0.5 * np.sqrt(x), (0.0, math.inf), 1.3)
    lim = ScaleContext(m, unit_kernel).boundary_limit("right")
    assert (lim.kind, lim.evidence["base_panels"]) == ("divergent", 128)
    assert _hex(lim.evidence["log_values"]) == (
        "0x1.4cf46fc124182p+3 0x1.87038d32608b1p+4 0x1.b125615804117p+5"
    )


def test_outward_edges_start_exactly_at_the_anchor():
    # both legs are ones where target - (target - anchor) != anchor in floats
    for anchor, target in [(0.3, 2.4), (0.8333333333333333, 4.833333333333333)]:
        for n in (32, 64, 2048):
            assert outward_edges(anchor, target, n)[0] == anchor
    with pytest.raises(ValueError, match="anchor and target coincide"):
        outward_edges(1.5, 1.5, 8)


def test_custom_cir_clone_right_limit_at_every_base_point():
    # a graded leg whose first edge rounded past c used to leave a sliver
    # panel across c, and the custom-model exponent rejected the batch
    m = CustomModel(lambda x: 1.0 * (0.5 - x), lambda x: np.sqrt(x), (0.0, math.inf), 1.0)
    for c in np.linspace(0.3, 1.9, 10):
        ctx = ScaleContext(m, ConstantKernel(1.0), c=float(c))
        assert ctx.boundary_limit("right").kind == "divergent"


def _clone(model):
    # a CustomModel with a built-in model's coefficients, interval and x0
    return CustomModel(model.drift, model.diffusion, model.interval, model.x0)


@settings(max_examples=40)
@given(
    jacobi=st.booleans(),
    sloped=st.booleans(),
    kappa=st.floats(0.2, 3.0),
    level=st.floats(0.05, 0.95),
    sigma=st.floats(0.3, 2.0),
    base=st.floats(0.1, 0.9),
    shift=st.sampled_from(["zero", "endpoint", "x0"]),
    right=st.booleans(),
    target=st.sampled_from(["v", "p"]),
)
def test_custom_clone_limits_match_the_closed_family(jacobi, sloped, kappa, level, sigma, base,
                                                     shift, right, target):
    # 'auto' sweeps a clone to its finite endpoint, under the shifts the
    # verdict tests use (0, minus the endpoint, minus x0).  Its kind must be
    # the closed rule's and a finite value the closed value to 10 quad_tol.
    # Exponents within 0.15 of 1 are left out: at the right end s = 1, where
    # the deepest panel is 2^-36 wide, a finite value that close to exponent
    # 1 settles off by more (2.8e-8 at 0.9, 1e-15 at s = 0)
    kernel = SumOfExponentialsKernel([1.0], [1.0]) if sloped else ConstantKernel(1.0)
    if jacobi:
        model = JacobiModel(0.0, 1.0, kappa, level, sigma, base)
    else:
        model, right = CIRModel(kappa, 4.0 * level, sigma, 4.0 * base), False
    which = "right" if right else "left"
    boundary = model.interval[int(right)]
    shift = {"zero": 0.0, "endpoint": -boundary, "x0": -model.x0}[shift]
    closed = ScaleContext(model, kernel, beta=shift, gamma=shift).boundary_limit(which, target)
    assume(abs(closed.evidence["exponent"] - 1.0) >= 0.15)
    ctx = ScaleContext(_clone(model), kernel, beta=shift, gamma=shift)
    got = ctx.boundary_limit(which, target)
    assert (got.kind, got.method) == (closed.kind, "sweep")
    if closed.kind == "finite":
        assert got.value == pytest.approx(closed.value, rel=10 * ctx.quad_tol)
    else:
        assert got.evidence["fitted_exponent"] < -1.0
        assert got.evidence["doubling_rounds"] == 2


@pytest.mark.parametrize("model, kernel, want", [
    (CIRModel(1.0, 0.3, 1.0, 1.0), "exp", 1.8696534875758448),
    (CIRModel(1.0, 0.2, 1.0, 1.0), "exp", 1.4002860254672331),
    (JacobiModel(0.0, 1.0, 1.0, 0.2, 1.0, 0.5), "flat", 5.0 / 3.0),
], ids=["cir_theta=0.3", "cir_theta=0.2", "jacobi"])
def test_custom_clone_left_limits_are_pinned(model, kernel, want, unit_kernel, sloped_kernel):
    # the closed values of v(0+); sampling read the first as inconclusive
    # and the others 2.3e-3 and 9.1e-4 off
    ctx = ScaleContext(_clone(model), unit_kernel if kernel == "flat" else sloped_kernel)
    res = ctx.boundary_limit("left")
    assert (res.kind, res.method) == ("finite", "sweep")
    assert res.value == pytest.approx(want, rel=1e-9)
    assert 0.0 <= res.evidence["last_max_delta"] <= ctx.quad_tol


def test_custom_divergent_limit_reports_the_fitted_exponent(sloped_kernel):
    # CIR(1, 1, 1) with K = e^-t: p' ~ y^-2 at 0, where the clone's end
    # panel integrates the pole of 2 b~ / sigma~^2 in closed form and fits
    # -2; nan in the 64- and 128-panel rounds decides it
    ctx = ScaleContext(_clone(CIRModel(1.0, 1.0, 1.0, 1.0)), sloped_kernel)
    res = ctx.boundary_limit("left")
    assert (res.kind, res.value, res.method) == ("divergent", None, "sweep")
    ev = res.evidence
    assert ev["fitted_exponent"] == pytest.approx(-2.0, abs=1e-8)
    assert 0.0 < abs(ev["fitted_exponent_change"]) < 1e-6
    assert (ev["base_panels"], ev["doubling_rounds"]) == (128, 2)
    assert "exponent" not in ev  # the verdict layer keys closed limits on it


@pytest.mark.parametrize("target", ["v", "p"])
def test_custom_exponential_singularity_reads_as_divergent(target, unit_kernel):
    # drift 1/x^2 at 0: p' ~ e^(2/x), steeper than any power, so the end
    # panel's fitted exponent falls without bound as the panel deepens
    model = CustomModel(lambda x: 1.0 / x**2, lambda x: np.ones_like(x), (0.0, 1.0), 0.5)
    res = ScaleContext(model, unit_kernel).boundary_limit("left", target)
    assert (res.kind, res.method) == ("divergent", "sweep")
    ev = res.evidence
    assert ev["fitted_exponent"] - ev["fitted_exponent_change"] < -1.0
    assert ev["fitted_exponent_change"] < 0.0
    assert ev["doubling_rounds"] == 2


def test_boundary_limit_argument_validation(cir_ctx):
    with pytest.raises(ValueError):
        cir_ctx.boundary_limit("up")
    with pytest.raises(ValueError):
        cir_ctx.boundary_limit("left", target="w")
    with pytest.raises(ValueError):
        cir_ctx.boundary_limit("left", method="guess")


# ------------------------------------------------------- change of base point


def test_change_of_base_identities(cir_ctx):
    c1, c2 = 0.5, 1.5
    beta, gamma = 0.15, -0.25
    lo = cir_ctx.with_base(c1).with_shifts(beta, gamma)
    hi = cir_ctx.with_base(c2).with_shifts(beta, gamma)
    for x in np.linspace(0.05, 0.45, 5):
        want = hi.scale(c1) + hi.scale_derivative(c1) * lo.scale(x)
        assert hi.scale(x) == pytest.approx(want, rel=1e-9)
        want_v = hi.v(c1) + lo.scale(x) * hi.v_prime(c1) + lo.v(x)
        assert hi.v(x) == pytest.approx(want_v, rel=1e-7)
    for x in np.linspace(1.55, 2.4, 5):
        want = lo.scale(c2) + lo.scale_derivative(c2) * hi.scale(x)
        assert lo.scale(x) == pytest.approx(want, rel=1e-9)
        want_v = lo.v(c2) + hi.scale(x) * lo.v_prime(c2) + hi.v(x)
        assert lo.v(x) == pytest.approx(want_v, rel=1e-7)
