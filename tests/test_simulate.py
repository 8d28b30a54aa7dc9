import dataclasses
import importlib
import math
import tracemalloc

import numpy as np
import pytest

from volterra_feller import (
    Boundary,
    BoundaryVerdict,
    CIRModel,
    ConstantKernel,
    CustomModel,
    JacobiModel,
    PowerModel,
    SimConfig,
    SimulationReport,
    SumOfExponentialsKernel,
    TruncatedFractionalKernel,
    Verdict,
    simulate,
    verdict_crosscheck,
)
from volterra_feller.errors import PreconditionError
from volterra_feller.simulate import scheme_discrepancy


def test_simulate_needs_a_sim_config(cir_111, unit_kernel):
    with pytest.raises(TypeError, match="^config must be a SimConfig"):
        simulate(cir_111, unit_kernel, {})


def test_config_validation():
    ok = dict(dt=0.01, horizon=1.0, n_paths=10)
    with pytest.raises(ValueError, match="dt"):
        SimConfig(**{**ok, "dt": 0.0})
    with pytest.raises(ValueError, match="horizon"):
        SimConfig(**{**ok, "horizon": 0.001})
    with pytest.raises(ValueError, match="^horizon must be finite"):
        SimConfig(**{**ok, "horizon": math.inf})
    with pytest.raises(ValueError, match="n_paths"):
        SimConfig(**{**ok, "n_paths": 0})
    with pytest.raises(ValueError, match="scheme"):
        SimConfig(**ok, scheme="milstein")
    with pytest.raises(ValueError, match="seed"):
        SimConfig(**ok, seed=-1)
    with pytest.raises(ValueError, match="hit_eps"):
        SimConfig(**ok, hit_eps=0.0)
    with pytest.raises(ValueError, match="blowup_cap"):
        SimConfig(**ok, blowup_cap=0.0)
    assert SimConfig(dt=0.25, horizon=1.1, n_paths=3).n_steps == 4


def test_explicit_hit_eps_sets_the_hit_band(cir_111, unit_kernel):
    # the same paths, hit 0.5 from 0 instead of the default 1e-4
    cfg = SimConfig(dt=0.01, horizon=0.5, n_paths=64, seed=1)
    default = simulate(cir_111, unit_kernel, cfg)
    wide = simulate(cir_111, unit_kernel, dataclasses.replace(cfg, hit_eps=0.5))
    assert (default.hit_eps, wide.hit_eps) == (1e-4, 0.5)
    assert wide.n_hit_left > default.n_hit_left


def test_seeds_keep_their_own_streams_up_to_2_64(cir_111, unit_kernel):
    # Philox keys are built as uint64: a list [seed, i] would go through
    # float64 from 2^63 on and give neighbouring seeds one stream
    module = importlib.import_module("volterra_feller.simulate")
    drawn = next(module._noise(5, 2, 5, 4, 1.0, 4))
    for column, i in enumerate(range(2, 5)):
        stream = np.random.Generator(np.random.Philox(key=[5, i])).standard_normal(4)
        assert np.array_equal(drawn[:, column], stream)
    cfg = SimConfig(dt=0.01, horizon=0.5, n_paths=16, seed=2**63)
    a = simulate(cir_111, unit_kernel, cfg)
    b = simulate(cir_111, unit_kernel, dataclasses.replace(cfg, seed=2**63 + 1))
    assert dataclasses.replace(a, seed=0) != dataclasses.replace(b, seed=0)
    # the largest seed runs without the float cast's RuntimeWarning
    assert simulate(cir_111, unit_kernel, dataclasses.replace(cfg, seed=2**64 - 1)).seed == 2**64 - 1
    with pytest.raises(ValueError, match="^seed must be an integer in"):
        SimConfig(dt=0.01, horizon=0.5, n_paths=16, seed=2**64)


def test_simulate_is_bit_reproducible(cir_111, unit_kernel):
    cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=64, seed=7)
    a = simulate(cir_111, unit_kernel, cfg)
    b = simulate(cir_111, unit_kernel, cfg)
    assert a == b
    c = simulate(cir_111, unit_kernel, dataclasses.replace(cfg, seed=8))
    assert c != a


# one small run per stepping branch, plus runs where every path hits and
# where none does; step counts are not multiples of the noise chunk
_TWO_EXP = SumOfExponentialsKernel([0.75, 0.5], [1.25, 4.0])
_CASES = {
    "running_sum": (CIRModel(1.0, 0.3, 1.0, 0.3), ConstantKernel(1.0),
                    dict(dt=1e-3, horizon=0.7, n_paths=600, seed=3)),
    "running_sum_lift": (JacobiModel(0.0, 1.0, 1.0, 0.5, 1.2, 0.5), ConstantKernel(1.0),
                         dict(dt=1e-3, horizon=0.7, n_paths=600, seed=3, scheme="markov_lift")),
    "exact_exp_one_rate": (CIRModel(1.0, 0.3, 1.0, 0.2), SumOfExponentialsKernel([1.0], [1.0]),
                           dict(dt=1e-3, horizon=0.7, n_paths=600, seed=4)),
    "exact_exp": (CIRModel(1.0, 0.1, 1.0, 0.1), _TWO_EXP,
                  dict(dt=1e-3, horizon=0.7, n_paths=515, seed=4)),
    "lift": (CIRModel(1.0, 0.1, 1.0, 0.1), _TWO_EXP,
             dict(dt=1e-3, horizon=0.7, n_paths=515, seed=4, scheme="markov_lift")),
    "history": (CIRModel(1.0, 0.2, 1.0, 0.1), TruncatedFractionalKernel(0.6, 4.0),
                dict(dt=2e-3, horizon=1.1, n_paths=515, seed=5)),
    "blowup": (PowerModel(1.8, 0.15, 0.5, 1.0), ConstantKernel(1.0),
               dict(dt=1e-3, horizon=1.5, n_paths=40, seed=6, blowup_cap=1e3)),
    "all_hit": (CIRModel(1.0, 0.01, 1.0, 0.02), ConstantKernel(1.0),
                dict(dt=1e-3, horizon=2.0, n_paths=40, seed=7)),
    "none_hit": (CIRModel(1.0, 1.0, 1.0, 1.0), ConstantKernel(1.0),
                 dict(dt=1e-3, horizon=0.6, n_paths=40, seed=8)),
}

# SimulationReport fields beyond the config echo, recorded from the
# whole-horizon noise blocks that simulate drew before time chunking
_PINNED = {
    "running_sum": dict(
        n_hit_left=139, n_hit_right=0, hit_fraction_left=0.23166666666666666,
        hit_fraction_right=0.0, hit_fraction=0.23166666666666666, hit_time_p10=0.2178,
        hit_time_p50=0.424, hit_time_p90=0.6372, terminal_mean=0.3592891479587918,
        terminal_var=0.10465055622981488, hit_eps=0.0001, blowup_cap=1000000.0,
    ),
    "running_sum_lift": dict(
        n_hit_left=46, n_hit_right=50, hit_fraction_left=0.07666666666666666,
        hit_fraction_right=0.08333333333333333, hit_fraction=0.16, hit_time_p10=0.259,
        hit_time_p50=0.47300000000000003, hit_time_p90=0.6625000000000001,
        terminal_mean=0.5069031597271704, terminal_var=0.07473009232678145, hit_eps=0.0001,
        blowup_cap=1000000.0,
    ),
    "exact_exp_one_rate": dict(
        n_hit_left=96, n_hit_right=0, hit_fraction_left=0.16, hit_fraction_right=0.0,
        hit_fraction=0.16, hit_time_p10=0.179, hit_time_p50=0.388, hit_time_p90=0.619,
        terminal_mean=0.2749496815493208, terminal_var=0.06302505651198323, hit_eps=0.0001,
        blowup_cap=1000000.0,
    ),
    "exact_exp": dict(
        n_hit_left=405, n_hit_right=0, hit_fraction_left=0.7864077669902912,
        hit_fraction_right=0.0, hit_fraction=0.7864077669902912, hit_time_p10=0.07040000000000002,
        hit_time_p50=0.188, hit_time_p90=0.4870000000000001, terminal_mean=0.20702779132534382,
        terminal_var=0.04345160309592261, hit_eps=0.0001, blowup_cap=1000000.0,
    ),
    "lift": dict(
        n_hit_left=405, n_hit_right=0, hit_fraction_left=0.7864077669902912,
        hit_fraction_right=0.0, hit_fraction=0.7864077669902912, hit_time_p10=0.07040000000000002,
        hit_time_p50=0.185, hit_time_p90=0.484, terminal_mean=0.2068377697540361,
        terminal_var=0.04359476139836919, hit_eps=0.0001, blowup_cap=1000000.0,
    ),
    "history": dict(
        n_hit_left=441, n_hit_right=0, hit_fraction_left=0.8563106796116505,
        hit_fraction_right=0.0, hit_fraction=0.8563106796116505,
        hit_time_p10=0.052000000000000005, hit_time_p50=0.20400000000000001, hit_time_p90=0.728,
        terminal_mean=0.32912692399492677, terminal_var=0.10082078578067756, hit_eps=0.0001,
        blowup_cap=1000000.0,
    ),
    "blowup": dict(
        n_hit_left=0, n_hit_right=35, hit_fraction_left=0.0, hit_fraction_right=0.875,
        hit_fraction=0.875, hit_time_p10=1.0166, hit_time_p50=1.1500000000000001,
        hit_time_p90=1.4274, terminal_mean=72.51188405323305, terminal_var=16738.98581702669,
        hit_eps=0.0001, blowup_cap=1000.0,
    ),
    "all_hit": dict(
        n_hit_left=40, n_hit_right=0, hit_fraction_left=1.0, hit_fraction_right=0.0,
        hit_fraction=1.0, hit_time_p10=0.0119, hit_time_p50=0.0375,
        hit_time_p90=0.31980000000000014, terminal_mean=None, terminal_var=None, hit_eps=0.0001,
        blowup_cap=1000000.0,
    ),
    "none_hit": dict(
        n_hit_left=0, n_hit_right=0, hit_fraction_left=0.0, hit_fraction_right=0.0,
        hit_fraction=0.0, hit_time_p10=None, hit_time_p50=None, hit_time_p90=None,
        terminal_mean=1.0148564995417357, terminal_var=0.3349345398366338, hit_eps=0.0001,
        blowup_cap=1000000.0,
    ),
}


def _run_case(name):
    model, kernel, cfg = _CASES[name]
    return simulate(model, kernel, SimConfig(**cfg)).as_dict()


def _pinned_report(name):
    config = SimConfig(**_CASES[name][2])
    echo = {key: getattr(config, key) for key in ("scheme", "dt", "horizon", "n_paths", "seed")}
    return {**echo, **_PINNED[name]}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_reports_match_pins(name):
    assert _run_case(name) == _pinned_report(name)


def test_blocking_does_not_change_results(monkeypatch):
    # Blocking and chunking must leak into neither the noise streams nor the
    # per-block state.  Chunks of 13 steps divide no step count here, and
    # 4096 covers each run in one chunk; 37 paths divide no path count.  The running sum and one-rate forms
    # take any width.  The multi-rate and history forms keep _BLOCK because
    # a BLAS product may round a column by its place in the call: OpenBLAS
    # rounds columns past the last multiple of four, and next to a thread
    # split, on their own.  Across widths they are compared on blocks of 64,
    # 128 and 512 paths, which avoid both.
    # the package's ``simulate`` attribute is the function, not the module
    module = importlib.import_module("volterra_feller.simulate")
    for width, chunk in ((37, 13), (1000, 4096)):
        monkeypatch.setattr(module, "_WIDE", width)
        monkeypatch.setattr(module, "_CHUNK", chunk)
        for name in _CASES:
            assert _run_case(name) == _pinned_report(name), (name, width, chunk)
    for name in ("exact_exp", "lift", "history"):
        model, kernel, cfg = _CASES[name]
        cfg = SimConfig(**{**cfg, "n_paths": 640})
        reports = []
        for width in (64, 128, 512):
            monkeypatch.setattr(module, "_BLOCK", width)
            reports.append(simulate(model, kernel, cfg))
        assert reports[0] == reports[1] == reports[2], name


def test_history_product_rounds_alike_at_these_widths():
    # the history form's kvals[k::-1] @ B_hist[: k + 1], one BLAS call per
    # step, gives each path the same bits at the block widths compared above
    rng = np.random.default_rng(9)
    kvals = rng.random(300)
    B_hist = rng.standard_normal((300, 640))
    for k in (0, 3, 17, 150, 299):
        full = kvals[k::-1] @ B_hist[: k + 1]
        for width in (64, 128, 512):
            for start in range(0, 640, width):
                block = np.ascontiguousarray(B_hist[: k + 1, start : start + width])
                assert np.array_equal(kvals[k::-1] @ block, full[start : start + width])


@pytest.mark.parametrize(
    "kernel, scheme",
    [(ConstantKernel(1.0), "conv_euler"), (_TWO_EXP, "conv_euler"), (_TWO_EXP, "markov_lift")],
    ids=["running_sum", "exact_exp", "lift"],
)
def test_memory_does_not_grow_with_n_steps(kernel, scheme):
    model = CIRModel(1.0, 1.0, 1.0, 1.0)

    def peak(horizon):
        cfg = SimConfig(dt=1e-3, horizon=horizon, n_paths=64, scheme=scheme, seed=2)
        tracemalloc.start()
        try:
            report = simulate(model, kernel, cfg)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.hit_fraction == 0.0  # every path runs every step
        return peak_bytes

    simulate(model, kernel, SimConfig(dt=1e-3, horizon=0.01, n_paths=2, scheme=scheme))
    short, long = peak(1.0), peak(4.0)
    assert long <= 1.25 * short, (short, long)


def test_hit_detection_memory_stays_within_the_noise_buffers():
    # one 2048-path block (K = 1 takes any width) where most paths hit: the
    # row-block scan for hits adds no more than a fifth to the two noise
    # buffers, the drawn chunk and its time-major copy
    cfg = SimConfig(dt=1e-3, horizon=0.6, n_paths=2048, seed=0)
    model = CIRModel(1.0, 0.05, 1.0, 0.05)
    simulate(model, ConstantKernel(1.0), SimConfig(dt=1e-3, horizon=0.01, n_paths=2))
    tracemalloc.start()
    try:
        report = simulate(model, ConstantKernel(1.0), cfg)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.hit_fraction > 0.8
    noise_bytes = 2 * 512 * 2048 * 8
    assert peak_bytes <= 1.2 * noise_bytes, (peak_bytes, noise_bytes)


# ------------------------------------------------------- hit detection oracle


# the per-step hit test with frozen paths that the row-block scan replaced,
# kept as the oracle for _advance_block
def _reference_advance_block(model, conv, noise, width, dt, levels):
    """Run one block of width paths; returns (terminal X, hit side, hit time).

    noise yields the block's increments dW in time order, one time-major
    chunk (steps, width) at a time.  levels = (lo, hi) are the hit levels.
    hit side is -1 / 0 / +1 for left / none / right.  Paths freeze at their
    hit value, and once all are frozen no further noise is drawn.
    """
    x0 = float(model.x0)
    X = np.full(width, x0)
    active = np.ones(width, dtype=bool)
    all_active = True
    hit_side = np.zeros(width, dtype=np.int8)
    hit_time = np.full(width, np.nan)
    k = 0
    for dW in noise:
        for dW_k in dW:
            Xh = model.truncate(X)
            B = model.drift(Xh) * dt + model.diffusion(Xh) * dW_k
            if all_active:
                X = x0 + conv(k, B)
            else:
                B[~active] = 0.0
                X = np.where(active, x0 + conv(k, B), X)
            k += 1
            crossed = (X <= levels[0]) | (X >= levels[1])
            if not all_active:
                crossed &= active
            if crossed.any():
                left = crossed & (X <= levels[0])
                hit_side[left] = -1
                hit_side[crossed & ~left] = 1
                hit_time[crossed] = k * dt
                active &= ~crossed
                all_active = False
                if not active.any():
                    return X, hit_side, hit_time
    return X, hit_side, hit_time


def _assert_matches_reference(model, kernel, scheme, dt, noise_chunks, width, levels):
    # noise_chunks() gives a fresh noise iterable: _advance_block writes over it
    module = importlib.import_module("volterra_feller.simulate")
    form = getattr(kernel, "exp_form", lambda: None)()
    n_steps = sum(len(chunk) for chunk in noise_chunks())
    got, want = (
        advance(model, module._convolver(kernel, form, scheme, dt, n_steps, width),
                noise_chunks(), width, dt, levels)
        for advance in (module._advance_block, _reference_advance_block)
    )
    for name, a, b in zip(("X", "hit_side", "hit_time"), got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), name
    return want


# (model, kernel, scheme, dt, n_steps, width, hit levels)
_ORACLE_BLOCKS = {
    "running_sum": (CIRModel(1.0, 0.3, 1.0, 0.3), ConstantKernel(1.0), "conv_euler",
                    1e-3, 700, 67, (1e-4, math.inf)),
    "exact_exp": (CIRModel(1.0, 0.1, 1.0, 0.1), _TWO_EXP, "conv_euler",
                  1e-3, 700, 67, (1e-4, math.inf)),
    "lift": (CIRModel(1.0, 0.1, 1.0, 0.1), _TWO_EXP, "markov_lift",
             1e-3, 700, 67, (1e-4, math.inf)),
    "history": (CIRModel(1.0, 0.2, 1.0, 0.1), TruncatedFractionalKernel(0.6, 4.0), "conv_euler",
                2e-3, 550, 67, (1e-4, math.inf)),
    "blowup": (PowerModel(1.8, 0.15, 0.5, 1.0), ConstantKernel(1.0), "conv_euler",
               1e-3, 1500, 40, (-1e3, 1e3)),
}


@pytest.mark.parametrize("chunk", [1, 13, 512])
@pytest.mark.parametrize("name", sorted(_ORACLE_BLOCKS))
def test_hits_match_per_step_detection(monkeypatch, name, chunk):
    # each branch's block against the per-step hit test with frozen paths
    # that the row-block scan replaced: same X, sides and times, bit for bit
    module = importlib.import_module("volterra_feller.simulate")
    monkeypatch.setattr(module, "_CHUNK", chunk)
    model, kernel, scheme, dt, n_steps, width, levels = _ORACLE_BLOCKS[name]
    _, side, _ = _assert_matches_reference(
        model, kernel, scheme, dt,
        lambda: module._noise(5, 0, width, n_steps, dt, module._CHUNK), width, levels,
    )
    assert 0 < np.count_nonzero(side) < width


class _Walk:
    """X = x0 + the running sum of the noise: paths follow the noise given."""

    x0 = 0.5

    def truncate(self, x):
        return x

    def drift(self, x):
        return np.zeros_like(x)

    def diffusion(self, x):
        return np.ones_like(x)


def _walk_noise(path_steps, n_steps, width, rng):
    # random steps of 0, +-0.25 (every sum is exact), then the listed rows
    # of chosen paths set to jump
    dW = 0.25 * rng.integers(-1, 2, size=(n_steps, width)).astype(float)
    for path, steps in path_steps.items():
        dW[:, path] = 0.0
        for row, jump in steps:
            dW[row, path] = jump
    return dW


@pytest.mark.parametrize("chunk", [1, 13, 512])
def test_hits_match_per_step_detection_at_edges(monkeypatch, chunk):
    # levels 0 and 1 around x0 = 0.5; step k's X lands on row k - 1
    module = importlib.import_module("volterra_feller.simulate")
    monkeypatch.setattr(module, "_CHUNK", chunk)
    rng = np.random.default_rng(14)
    edges = {
        0: [(12, 0.5)],  # on the last step of a 13-step chunk
        1: [(13, -0.5)],  # on the first step of the next one
        2: [(63, 0.5)],  # on the last row of a scanned row block
        3: [(64, -0.5)],  # on the first row of the next block
        4: [(511, 0.5)],  # on the last step of a 512-step chunk
        5: [(512, -0.5)],  # on the first step of the next one
        6: [(4, 0.5), (5, -0.5), (20, 0.75)],  # crosses, comes back, crosses again
        7: [(2, -0.75), (3, 1.5)],  # crosses left, then right
        8: [(529, -0.5)],  # on the last step of the run
        9: [(100, 0.25), (300, -0.5)],  # never reaches a level
    }
    n_steps, width = 530, 19

    def chunks_of(dW):
        return lambda: [dW[i : i + chunk].copy() for i in range(0, n_steps, chunk)]

    X, side, time = _assert_matches_reference(
        _Walk(), ConstantKernel(1.0), "conv_euler", 1.0,
        chunks_of(_walk_noise(edges, n_steps, width, rng)), width, (0.0, 1.0),
    )
    assert side[:10].tolist() == [1, -1, 1, -1, 1, -1, 1, -1, -1, 0]
    assert time[:9].tolist() == [13.0, 14.0, 64.0, 65.0, 512.0, 513.0, 5.0, 3.0, 530.0]
    assert X[6] == 1.0 and X[7] == -0.25 and X[9] == 0.25

    # every path hits in the first row block, so the run stops early
    first = {path: [(int(rng.integers(0, 64)), 0.5 * (-1) ** path)] for path in range(width)}
    _, side, _ = _assert_matches_reference(
        _Walk(), ConstantKernel(1.0), "conv_euler", 1.0,
        chunks_of(_walk_noise(first, n_steps, width, rng)), width, (0.0, 1.0),
    )
    assert np.all(side != 0)


def test_schemes_coincide_for_constant_kernels(cir_111, unit_kernel):
    # a constant kernel has one zero rate, where the explicit lift factor
    # 1 - 0 dt is exact, so both schemes run the same recursion
    base = SimConfig(dt=0.01, horizon=1.0, n_paths=32, seed=11)
    conv = simulate(cir_111, unit_kernel, base)
    lift = simulate(cir_111, unit_kernel, dataclasses.replace(base, scheme="markov_lift"))
    assert conv.terminal_mean == lift.terminal_mean
    assert conv.terminal_var == lift.terminal_var
    assert conv.n_hit_left == lift.n_hit_left


def test_markov_lift_needs_finitely_many_rates():
    cfg = SimConfig(dt=0.01, horizon=0.1, n_paths=2, scheme="markov_lift")
    kernel = TruncatedFractionalKernel(0.5, 10.0)
    with pytest.raises(PreconditionError, match="markov_lift"):
        simulate(CIRModel(1.0, 1.0, 1.0, 0.5), kernel, cfg)


def test_general_kernel_falls_back_to_history_convolution(cir_111):
    # exponential kernel via the generic path agrees with the sum-of-
    # exponentials fast path on the same noise
    class PlainExp:
        completely_monotone = True

        def eval(self, t):
            return np.exp(-np.asarray(t, dtype=float))

        def eval_deriv(self, t):
            return -np.exp(-np.asarray(t, dtype=float))

        def k0_kprime0(self):
            return 1.0, -1.0

    cfg = SimConfig(dt=0.01, horizon=0.5, n_paths=16, seed=5)
    fast = simulate(cir_111, SumOfExponentialsKernel([1.0], [1.0]), cfg)
    slow = simulate(cir_111, PlainExp(), cfg)
    assert fast.terminal_mean == pytest.approx(slow.terminal_mean, rel=1e-2)


def test_hits_freeze_paths_at_the_boundary():
    # deterministic pull to the left edge: x' = -5, from 0.5, so the hit
    # lands near t = 0.1 and every path freezes there
    m = CustomModel(
        lambda x: -5.0 * np.ones_like(np.asarray(x, dtype=float)),
        lambda x: 1e-8 * np.ones_like(np.asarray(x, dtype=float)),
        (0.0, 1.0),
        0.5,
    )
    cfg = SimConfig(dt=1e-3, horizon=1.0, n_paths=8, seed=1)
    rep = simulate(m, ConstantKernel(1.0), cfg)
    assert rep.n_hit_left == 8 and rep.n_hit_right == 0
    assert rep.hit_fraction == 1.0
    assert rep.hit_time_p50 == pytest.approx(0.1, abs=5e-3)
    assert rep.terminal_mean is None and rep.terminal_var is None
    assert rep.hit_eps == pytest.approx(1e-4)  # 1e-4 of the unit width


def test_blowup_cap_acts_as_infinite_boundary():
    # x' = x^2 from 1 explodes at t = 1; the cap records a right hit
    m = PowerModel(2.0, 0.0, 1e-6, 1.0)
    cfg = SimConfig(dt=1e-3, horizon=2.0, n_paths=4, seed=2, blowup_cap=1e3)
    rep = simulate(m, ConstantKernel(1.0), cfg)
    assert rep.n_hit_right == 4
    assert 0.9 < rep.hit_time_p50 < 1.1


def test_no_hits_yields_survivor_statistics(cir_111, unit_kernel):
    rep = simulate(cir_111, unit_kernel, SimConfig(dt=0.01, horizon=0.5, n_paths=50, seed=9))
    assert rep.hit_fraction == 0.0
    assert rep.hit_time_p50 is None
    assert rep.terminal_mean is not None and rep.terminal_var >= 0.0


def test_blowup_cap_must_clear_x0():
    with pytest.raises(ValueError, match="blowup_cap"):
        simulate(
            CIRModel(1.0, 1.0, 1.0, 5.0),
            ConstantKernel(1.0),
            SimConfig(dt=0.01, horizon=0.1, n_paths=2, blowup_cap=2.0),
        )


# -------------------------------------------------------------- crosscheck


def _report(left=0.0, right=0.0, n=100):
    n_l, n_r = int(left * n), int(right * n)
    return SimulationReport(
        scheme="conv_euler",
        dt=0.01,
        horizon=1.0,
        n_paths=n,
        seed=0,
        hit_eps=1e-4,
        blowup_cap=1e6,
        n_hit_left=n_l,
        n_hit_right=n_r,
        hit_fraction_left=left,
        hit_fraction_right=right,
        hit_fraction=left + right,
        hit_time_p10=None,
        hit_time_p50=None,
        hit_time_p90=None,
        terminal_mean=1.0,
        terminal_var=0.1,
    )


def test_crosscheck_statuses():
    verdicts = [
        BoundaryVerdict(Boundary.LEFT, Verdict.NO_EXIT_AS, "t1", ()),
        BoundaryVerdict(Boundary.RIGHT, Verdict.EXITS_WITH_POSITIVE_PROB, "t2", ()),
        BoundaryVerdict(Boundary.LEFT, Verdict.NECESSARY_HOLDS, "t3", ()),
        BoundaryVerdict(Boundary.RIGHT, Verdict.SUP_BOUNDED_AS, "t4", ()),
    ]
    out = verdict_crosscheck(verdicts, _report(left=0.01, right=0.2))
    by_theorem = {c["theorem"]: c for c in out["checks"]}
    assert by_theorem["t1"]["status"] == "agree"  # 0.01 <= leak 0.02
    assert by_theorem["t2"]["status"] == "agree"  # 0.2 >= floor 0.05
    assert by_theorem["t3"]["status"] == "skipped"
    assert by_theorem["t4"]["status"] == "contradict"  # right 0.2 > 0.02
    assert not out["consistent"]  # the one contradiction poisons the report


def test_crosscheck_contradiction_flips_consistency():
    v = BoundaryVerdict(Boundary.LEFT, Verdict.NO_EXIT_AS, "t", ())
    bad = verdict_crosscheck([v], _report(left=0.5))
    assert not bad["consistent"]
    ok = verdict_crosscheck([v], _report(left=0.01))
    assert ok["consistent"]


def test_crosscheck_low_exit_fraction_is_unresolved_not_wrong():
    v = BoundaryVerdict(Boundary.LEFT, Verdict.EXITS_WITH_POSITIVE_PROB, "t", ())
    out = verdict_crosscheck([v], _report(left=0.01))
    assert out["checks"][0]["status"] == "unresolved"
    assert out["consistent"]


def test_crosscheck_accepts_a_single_verdict_and_validates_tols():
    v = BoundaryVerdict(Boundary.LEFT, Verdict.NO_EXIT_AS, "t", ())
    out = verdict_crosscheck(v, _report())
    assert len(out["checks"]) == 1
    with pytest.raises(ValueError, match="leak_tol"):
        verdict_crosscheck([v], _report(), leak_tol=1.0)
    with pytest.raises(ValueError, match="floor_tol"):
        verdict_crosscheck([v], _report(), floor_tol=0.0)


# ------------------------------------------------------- scheme discrepancy


def test_discrepancy_zero_for_constant_kernel(cir_111, unit_kernel):
    rows = scheme_discrepancy(cir_111, unit_kernel, [2e-3, 1e-3], 1.0, n_paths=8)
    assert [r["dt"] for r in rows] == [1e-3, 2e-3]
    for r in rows:
        assert r["max_terminal_gap"] == 0.0


def test_discrepancy_rows_are_pinned(cir_111, sloped_kernel):
    # rows recorded from the whole-grid noise block drawn before time
    # chunking; the first set is acceptance criterion 10's
    rows = scheme_discrepancy(cir_111, sloped_kernel, [2e-3, 1e-3, 5e-4], 1.0, n_paths=50)
    assert rows == [
        {"dt": 0.0005, "max_terminal_gap": 0.0006747556493293949},
        {"dt": 0.001, "max_terminal_gap": 0.0013503745542275958},
        {"dt": 0.002, "max_terminal_gap": 0.0026911675760197262},
    ]
    rows = scheme_discrepancy(
        JacobiModel(0.0, 1.0, 1.0, 0.5, 1.0, 0.5), _TWO_EXP, [1e-2, 1e-3], 0.6, n_paths=9, seed=3
    )
    assert rows == [
        {"dt": 0.001, "max_terminal_gap": 0.00044961234311025056},
        {"dt": 0.01, "max_terminal_gap": 0.00392790602284343},
    ]


def test_discrepancy_contracts_with_dt(cir_111, sloped_kernel):
    rows = scheme_discrepancy(
        cir_111, sloped_kernel, [2e-3, 1e-3, 5e-4], 1.0, n_paths=20, seed=4
    )
    gaps = {r["dt"]: r["max_terminal_gap"] for r in rows}
    assert gaps[2e-3] > gaps[1e-3] > gaps[5e-4] > 0.0
    assert gaps[2e-3] / gaps[1e-3] > 1.5
    assert gaps[1e-3] / gaps[5e-4] > 1.5


def test_discrepancy_requires_nested_grids(cir_111, sloped_kernel):
    with pytest.raises(ValueError, match="integer multiple"):
        scheme_discrepancy(cir_111, sloped_kernel, [3e-3, 2e-3], 0.1, n_paths=2)
    with pytest.raises(ValueError, match="positive"):
        scheme_discrepancy(cir_111, sloped_kernel, [0.0], 0.1, n_paths=2)


@pytest.mark.parametrize("dts", [
    ["0.5"],  # ran
    [0.5, math.inf],  # OverflowError from round(inf)
    [0.5, math.nan],  # "cannot convert float NaN to integer"
    [0.5, None],
])
def test_discrepancy_steps_must_be_finite_reals(cir_111, unit_kernel, dts):
    with pytest.raises(ValueError, match="^dts entries must be finite"):
        scheme_discrepancy(cir_111, unit_kernel, dts, 1.0, n_paths=2)


def test_discrepancy_takes_numpy_steps(cir_111, unit_kernel):
    rows = scheme_discrepancy(cir_111, unit_kernel, np.array([0.5, 0.25]), 1.0, n_paths=2)
    assert [row["dt"] for row in rows] == [0.25, 0.5]
    assert all(type(row["dt"]) is float for row in rows)
