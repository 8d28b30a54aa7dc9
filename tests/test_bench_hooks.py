"""The benchmark's hooks into the library, checked without running it.

``bench/tracer.py`` wraps methods it finds in their class bodies
(``cls.__dict__[name]``) and functions bound at module level, and
``bench/worker.py`` records ``simulate._thread_count()``.  A refactor that
moves a wrapped method off its class or drops that stub breaks traced
benchmark runs; these tests load both files by path, unchanged, and fail
first.
"""

import importlib.util
from pathlib import Path

import volterra_feller
import volterra_feller.cli  # noqa: F401  (the tracer wraps cli.main too)
from volterra_feller import CIRModel, ConstantKernel, ScaleContext

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_counts_library_calls():
    tracer = _load("tracer")
    rec = tracer.Recorder()
    uninstall = tracer.install(rec)
    try:
        kernel = ConstantKernel(1.0)
        model = CIRModel(1.0, 1.0, 1.0, 1.0)
        ScaleContext(model, kernel).v(1.5)
        kernel.eval([0.0, 0.5, 1.0])
        # looked up at call time: the tracer rebinds the package's name
        volterra_feller.family_test(model, kernel)
    finally:
        uninstall()
    assert rec.counts["scale.v_calls"] == 1
    assert rec.counts["kernels.eval_points"] == 3
    assert rec.counts["feller.verdicts"] >= 1
    assert {"scale.v", "kernels.eval", "feller.family"} <= {span[0] for span in rec.spans}
    # uninstalled, the classes and the package hold the library's own code
    assert not hasattr(ScaleContext.__dict__["v"], "__wrapped__")
    assert not hasattr(ConstantKernel.__dict__["eval"], "__wrapped__")
    assert not hasattr(volterra_feller.family_test, "__wrapped__")


def test_worker_machine_record_reads_the_library():
    machine = _load("worker")._machine(volterra_feller)
    assert machine["library_threads"] == 1
    assert machine["library_version"] == volterra_feller.__version__
