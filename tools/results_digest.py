"""Print a digest of every benchmark operation's result, one line each.

    python3 tools/results_digest.py
    python3 tools/results_digest.py --workloads limits --seeds 1 2

Each line is: workload, seed, operation id, and the sha256 of the repr of
the operation's result (or of its exception's type and message).  The
operations come from ``bench/workloads.build`` and run once each, in order,
with the library imported from ``src/`` of the checkout this file sits in.
BLAS is pinned to one thread, as the benchmark runs it.  Run it on two
checkouts and diff the outputs: equal lines mean equal results.
"""

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("limits", "qualify", "montecarlo")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads BLAS
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import workloads

    for name in args.workloads:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                ops, _ = workloads.build(name, seed, workdir)
                for op in ops:
                    try:
                        text = repr(op.run())
                    except Exception as exc:  # a failure is a result too
                        text = f"{type(exc).__name__}: {exc}"
                    digest = hashlib.sha256(text.encode()).hexdigest()
                    print(f"{name} {seed} {op.id} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
