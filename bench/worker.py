"""One workload in a fresh interpreter; prints one JSON line and exits.

    python3 bench/worker.py --workload NAME --seed N --setup-only
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

The library is imported from ``src/`` of the checkout this file sits in.
``--setup-only`` stops once the import is done and the inputs are built and
prints the CLOCK_MONOTONIC reading at that moment, so the caller can time a
cold start.  Otherwise the workload's fixed batch runs as a closed loop
(one operation at a time): a short warm-up, then measured passes until
the time is used up.
With ``--trace 1`` untraced and traced passes alternate; the traced ones
give the per-layer numbers and the difference is the tracing overhead.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WARMUP_S = 3.0
MIN_PASSES = 3  # untraced passes per run without tracing
SRC = os.path.join(ROOT, "src")


def _import_library():
    sys.path.insert(0, SRC)
    import volterra_feller

    where = os.path.dirname(os.path.abspath(volterra_feller.__file__))
    if os.path.dirname(where) != SRC:
        raise SystemExit(f"volterra_feller imported from {where}, not from {SRC}")
    return volterra_feller


def _machine(vf):
    import ctypes
    import glob
    import mpmath
    import numpy
    import scipy

    blas = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    if libs:
        try:
            fn = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
            fn.restype = ctypes.c_int
            blas = fn()
        except (OSError, AttributeError):
            blas = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "os_cpu_count": os.cpu_count(),
        "blas_threads": blas,
        "library_threads": sys.modules["volterra_feller.simulate"]._thread_count(),
        "library_version": vf.__version__,
    }


def _run_pass(ops, workloads, hostref=None):
    """One closed-loop pass; returns (wall, latencies, refs, failures).

    An operation's latency runs from the call to its outcome, a result or
    an exception, so every attempted operation has one; failures are
    counted apart.  With ``hostref`` the reference loop runs before each
    operation and after the last one; an operation's ref is the median of
    the six loops nearest to it, so one loop slowed by a hiccup does not
    move it, and the wall leaves the loops out.
    """
    latencies, failures, loops = [], [], []
    t_pass = time.perf_counter()
    for op in ops:
        if hostref is not None:
            loops.append(hostref.loop())
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # every failure is reported by op id
            latencies.append(time.perf_counter() - t0)
            failures.append({"id": op.id, "error": type(exc).__name__, "message": str(exc)[:200],
                             "known_defect": workloads.is_known_defect(op, exc)})
            continue
        latencies.append(time.perf_counter() - t0)
        try:
            op.check(result)
        except Exception as exc:  # a check that cannot run is a failed check
            failures.append({"id": op.id, "error": f"oracle {type(exc).__name__}",
                             "message": str(exc)[:200], "known_defect": False})
    if hostref is not None:
        loops.append(hostref.loop())
    refs = [statistics.median(loops[max(0, i - 2):i + 4]) for i in range(len(loops) - 1)]
    return time.perf_counter() - t_pass - sum(loops), latencies, refs, failures


def _warm_up(ops):
    """Run operations in batch order until a pass is done or WARMUP_S passed.

    In a fresh process the first calls on limits ran up to twice as slow as
    later ones, but only for the first few operations of the batch, so the
    warm-up stops after a few seconds.  Returns (seconds, operations run).
    """
    t0 = time.perf_counter()
    for n, op in enumerate(ops, 1):
        try:
            op.run()
        except Exception:
            pass  # failures are counted in the measured passes
        if time.perf_counter() - t0 >= WARMUP_S:
            break
    return time.perf_counter() - t0, n


def _stop(signum, frame):
    raise SystemExit(128 + signum)  # runs the cleanup below


def main(argv=None):
    signal.signal(signal.SIGTERM, _stop)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    vf = _import_library()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import hostref
    import tracer
    import workloads

    # CLI configs are written inside the checkout and removed on exit
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        ops, facts = workloads.build(args.workload, args.seed, workdir)
        ready = time.monotonic()
        # the host's speed at set-up: median of a few reference loops
        setup_ref = sorted(hostref.loop() for _ in range(5))[2]
        if args.setup_only:
            print(json.dumps({"ready_monotonic": ready, "setup_ref": setup_ref}))
            return 0
        out = _measure(ops, args, workloads, tracer, hostref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another worker still uses it
    out.update(facts)
    out["ready_monotonic"] = ready
    out["setup_ref"] = setup_ref
    out["nominal_ref"] = hostref.NOMINAL_S
    out["machine"] = _machine(vf)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


def _measure(ops, args, workloads, tracer, hostref):
    walls, traced_walls, latencies, refs, failures = [], [], [], [], []
    layers, counts = [], []
    rec = tracer.Recorder() if args.trace else None
    warmup_wall, warmup_ops = _warm_up(ops)
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        done = len(walls) + len(traced_walls)
        # stop where one more pass would overrun the budget by more than half
        # a pass; at least MIN_PASSES untraced passes, so each operation of
        # a long batch has a median of three, or with tracing one untraced
        # and two traced ones, so counts can be compared between passes
        time_up = done and elapsed + 0.5 * elapsed / done >= args.seconds
        if args.trace:
            if time_up and walls and len(traced_walls) >= 2:
                break
            traced = bool(walls) and (len(traced_walls) < len(walls) or time_up)
        else:
            if time_up and len(walls) >= MIN_PASSES:
                break
            traced = False
        if traced:
            rec.reset()
            uninstall = tracer.install(rec)
            try:
                wall, lat, _, fail = _run_pass(ops, workloads)
            finally:
                uninstall()
            self_s, roots, overlap = tracer.self_times(rec.spans)
            self_s["harness"] = wall - roots
            self_s["trace.thread_overlap"] = overlap
            layers.append(self_s)
            counts.append(dict(rec.counts))
            traced_walls.append(wall)
        else:
            wall, lat, ref, fail = _run_pass(ops, workloads, hostref)
            walls.append(wall)
            latencies.extend(lat)
            refs.extend(ref)
        failures.extend(fail)
    return {
        "ops_per_pass": len(ops),
        "warmup_wall": warmup_wall,
        "warmup_ops": warmup_ops,
        "pass_walls": walls,
        "traced_walls": traced_walls,
        "latencies": latencies,
        "refs": refs,
        "failures": failures,
        "attempted": len(ops) * (len(walls) + len(traced_walls)),
        "layers": layers,
        "counts": counts,
        "t_measure": time.perf_counter() - t_start,
    }


if __name__ == "__main__":
    sys.exit(main())
