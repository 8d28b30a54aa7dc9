"""Outside-in benchmark of volterra-feller: one command, three workloads.

    python3 bench/run.py --workload limits|qualify|montecarlo --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src/``.
Each workload is a fixed batch of operations built from the seed and run as
a closed loop with one client: the next operation starts only after the
previous one returned and its output passed an independent oracle.

The batch runs in a fresh interpreter (``bench/worker.py``): a short
warm-up, then measured passes for about ``--seconds``.  Before it, the same
worker is started with ``--setup-only`` a few times; ``setup_s`` is the
median time from spawning an interpreter to ``import volterra_feller``
done and inputs built.  ``--workload all`` runs the three in turn.
End-to-end times are scaled to a nominal host speed by a reference loop
timed beside each operation (``bench/hostref.py``), because this shared
host's own speed moves by up to a half from minute to minute.

With ``--trace 0`` the end-to-end metrics are reported, with ``--trace 1``
the per-layer ones (self times from spans the benchmark records around
calls into each module, counts at the same boundaries).  Human-readable
tables go first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Exits non-zero without
that line when the workload cannot run.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("limits", "qualify", "montecarlo")
SETUP_SAMPLES = 5  # setup_s is the median over this many cold starts

# per-layer metrics: span self times (reported as <name>_s), counts per
# pass, and ratios of counts
LAYER_TIMES = (
    "scale.boundary_limit", "scale.v", "scale.p", "scale.u_series", "scale.model_coeff",
    "kernels.eval", "resolvent.solve", "resolvent.check", "fracapprox.gauss_kernel",
    "fracapprox.approx_error", "feller.necessary", "feller.sufficient",
    "feller.bounded_interval", "feller.sup_inf", "feller.family", "feller.study",
    "simulate.simulate", "simulate.crosscheck", "cli.main", "harness", "trace.thread_overlap",
)
LAYER_COUNTS = (
    "scale.boundary_limit_calls", "scale.sample_points", "scale.errors", "scale.v_calls",
    "scale.p_calls", "scale.model_coeff_calls", "kernels.eval_points", "resolvent.grid_points",
    "resolvent.errors", "fracapprox.gauss_nodes", "simulate.path_steps",
)
LAYER_RATIOS = {
    "scale.sampled_frac": ("scale.sampled", "scale.boundary_limit_calls"),
    "scale.decisive_frac": ("scale.decisive", "scale.boundary_limit_calls"),
    "feller.decisive_frac": ("feller.decisive", "feller.verdicts"),
}


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _child_env(nproc):
    env = dict(os.environ)
    # BLAS runs single-threaded inside each calling thread, so the library's
    # own pool threads are the only compute threads and fit in nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["VOLTERRA_FELLER_THREADS"] = str(min(nproc, 4))
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args, env, timeout):
    """Run the worker; returns (spawn time, parsed last stdout line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker {args} timed out after {timeout} s")
    finally:
        # also reached when this process is told to stop
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"worker {args} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit(f"worker {args} printed nothing")
    return t0, json.loads(lines[-1])


def _tail(values):
    """(value, percentile): the highest percentile with ten values beyond it.

    That is the eleventh largest value; with fewer than eleven values the
    largest one stands in and the percentile is 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _row(name, m, note=""):
    value = f"{m['value']:14d}" if isinstance(m["value"], int) else f"{m['value']:14.6g}"
    print(f"{name:28s} {value}  {m['unit']}{note}")


def end_to_end(res, setup):
    """End-to-end metrics from one measuring worker and the set-up samples.

    Times are scaled to the nominal host speed (see hostref.py): each
    latency by nominal / the reference loops nearest it, each set-up sample
    by nominal / the loops right after it.
    """
    nominal, n = res["nominal_ref"], res["ops_per_pass"]
    lat = [x * nominal / r for x, r in zip(res["latencies"], res["refs"])]
    tail, level = _tail(lat)
    raw_wall = sum(statistics.median(res["latencies"][i::n]) for i in range(n))
    metrics = {
        "setup_s": _metric(statistics.median(t * nominal / r for t, r in setup), "s"),
        "wall_s": _metric(sum(statistics.median(lat[i::n]) for i in range(n)), "s"),
        "op_p50_s": _metric(statistics.median(lat), "s"),
        "op_tail_s": _metric(tail, "s"),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
    }
    notes = {
        "op_p50_s": f"{len(lat)} operations",
        "op_tail_s": f"p{level:.2f} of {len(lat)} operations",
        "wall_s": f"sum over {n} operations of the median of {len(res['pass_walls'])} passes; "
                  f"unscaled {raw_wall:.4g} s",
        "setup_s": f"median of {len(setup)} cold starts; unscaled "
                   f"{statistics.median(t for t, _ in setup):.4g} s",
    }
    return metrics, notes


def per_layer(res):
    passes = res["layers"]
    counts = res["counts"]
    metrics = {}
    for name in LAYER_TIMES:
        key = name + "_s" if name != "harness" else "harness_s"
        metrics[key] = _metric(statistics.median(p.get(name, 0.0) for p in passes), "s")
    for name in LAYER_COUNTS:
        metrics[name] = _metric(counts[0].get(name, 0), "count")
    for name, (num, den) in LAYER_RATIOS.items():
        d = counts[0].get(den, 0)
        metrics[name] = _metric(counts[0].get(num, 0) / d if d else 0.0, "fraction")
    traced = statistics.median(res["traced_walls"])
    metrics["trace.traced_wall_s"] = _metric(traced, "s")
    metrics["trace.overhead_s"] = _metric(traced - statistics.median(res["pass_walls"]), "s")
    return metrics


def run_one(workload, seed, seconds, trace):
    """Run one workload and print its tables and its result line."""
    nproc = _nproc()
    env = _child_env(nproc)
    common = ["--workload", workload, "--seed", str(seed)]
    setup = []  # (seconds, reference loop right after)
    for _ in range(SETUP_SAMPLES - 1):
        t0, ready = _spawn(common + ["--setup-only"], env, timeout=120)
        setup.append((ready["ready_monotonic"] - t0, ready["setup_ref"]))
    t0, res = _spawn(common + ["--seconds", str(seconds), "--trace", str(trace)],
                     env, timeout=seconds * 4 + 120)
    setup.append((res["ready_monotonic"] - t0, res["setup_ref"]))

    machine = dict(res["machine"], nproc=nproc, git_commit=_git_commit(), seed=seed,
                   workload=workload)
    if machine["library_threads"] * (machine["blas_threads"] or 1) > nproc:
        raise SystemExit("library threads times BLAS threads exceed nproc")
    failures = res["failures"]
    correct = all(f["known_defect"] for f in failures)

    print(f"# machine {json.dumps(machine, sort_keys=True)}")
    print(f"# workload {workload}: {res['ops_per_pass']} operations per pass, "
          f"{len(res['pass_walls'])} untraced + {len(res['traced_walls'])} traced passes "
          f"in {res['t_measure']:.1f} s")
    refs = sorted(res["refs"])
    print(f"# host reference loop: median {1e3 * statistics.median(refs):.3f} ms, "
          f"quartiles {1e3 * refs[len(refs) // 4]:.3f} to {1e3 * refs[3 * len(refs) // 4]:.3f} ms, "
          f"nominal {1e3 * res['nominal_ref']:.3f} ms")
    print("# setup samples " + " ".join(f"{x:.3f}" for x, _ in setup)
          + f" s; warm-up {res['warmup_wall']:.3f} s over {res['warmup_ops']} operations; pass walls "
          + " ".join(f"{x:.3f}" for x in res["pass_walls"] + res["traced_walls"]) + " s")
    for case, nbytes in sorted(res.get("noise_block_bytes", {}).items()):
        print(f"# noise block {case}: {nbytes} B ({nbytes / 1e6:.1f} MB, computed)")
    by_id = {}
    for f in failures:
        key = (f["id"], f["error"], f["known_defect"])
        by_id.setdefault(key, []).append(f["message"])
    for (op_id, err, known), messages in sorted(by_id.items()):
        tag = "known defect" if known else f"UNEXPECTED: {messages[0]}"
        print(f"# failed {op_id}: {err} x{len(messages)} ({tag})")

    attempted, failed = res["attempted"], len(failures)
    _row("fail_frac", _metric(failed / attempted, "fraction"), f"  ({failed} of {attempted})")
    if not trace:
        metrics, notes = end_to_end(res, setup)
        print(f"{'end-to-end metric':28s} {'value':>14s}  unit")
        for name, m in metrics.items():
            _row(name, m, f"  ({notes[name]})" if name in notes else "")
        if "path_steps_per_pass" in res:
            steps = res["path_steps_per_pass"]
            rate = steps / metrics["wall_s"]["value"]
            _row("path_steps_per_s", _metric(rate, "1/s"), f"  ({steps} path steps per pass)")
    else:
        # counts must repeat exactly between passes of one seed
        if any(c != res["counts"][0] for c in res["counts"][1:]):
            print("# counts differ between traced passes", file=sys.stderr)
            correct = False
        metrics = per_layer(res)
        print(f"{'per-layer metric':28s} {'value':>14s}  unit")
        for name, m in metrics.items():
            _row(name, m)
        # self times (harness included) less the thread overlap add up to
        # each traced pass's wall time
        worst = max(abs(sum(p.values()) - 2.0 * p["trace.thread_overlap"] - wall)
                    for p, wall in zip(res["layers"], res["traced_walls"]))
        print(f"# self times + harness - thread overlap = traced wall within {worst:.2e} s "
              f"in each of {len(res['traced_walls'])} traced passes")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _stop)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "volterra_feller", "__init__.py")):
        print(f"error: no library sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        run_one(name, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
