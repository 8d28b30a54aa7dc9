import dataclasses
import importlib
import math

import numpy as np
import pytest

from volterra_feller import (
    Boundary,
    BoundaryVerdict,
    CIRModel,
    ConstantKernel,
    CustomModel,
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


def test_config_validation():
    ok = dict(dt=0.01, horizon=1.0, n_paths=10)
    with pytest.raises(ValueError, match="dt"):
        SimConfig(**{**ok, "dt": 0.0})
    with pytest.raises(ValueError, match="horizon"):
        SimConfig(**{**ok, "horizon": 0.001})
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


def test_simulate_is_bit_reproducible(cir_111, unit_kernel):
    cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=64, seed=7)
    a = simulate(cir_111, unit_kernel, cfg)
    b = simulate(cir_111, unit_kernel, cfg)
    assert a == b
    c = simulate(cir_111, unit_kernel, dataclasses.replace(cfg, seed=8))
    assert c != a


def test_blocking_does_not_change_results(cir_111, unit_kernel, monkeypatch):
    # 600 paths run as two blocks, then as one; blocking must not leak into
    # the noise stream or the per-block state
    cfg = SimConfig(dt=0.05, horizon=0.5, n_paths=600, seed=3)
    two_blocks = simulate(cir_111, unit_kernel, cfg)
    # the package's ``simulate`` attribute is the function, not the module
    module = importlib.import_module("volterra_feller.simulate")
    monkeypatch.setattr(module, "_BLOCK", 1024)
    one_block = simulate(cir_111, unit_kernel, cfg)
    assert two_blocks == one_block


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
