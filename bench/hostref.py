"""A fixed reference loop that tracks how fast the host runs right now.

This machine is a few cores of a shared host.  While other tenants are
busy, everything on it runs up to about 1.5 times slower, for seconds to
minutes at a time; medians of the same workload over runs of half a minute
moved by a third from run to run.  The slowdown hits every piece of
interpreter and numpy work alike, so the benchmark times this loop, which
calls nothing in the library, next to each operation and scales the
operation's latency by NOMINAL_S / (the loop's time around it).  A change to
the library moves the scaled times as much as the raw ones; a busy host
moves the loop and the operation together and cancels out.
"""

import time

import numpy as np

# Scaled times are seconds on a host where one reference loop takes this
# long, about what it takes on an idle core of a 2-core x86-64 VM.
NOMINAL_S = 0.002

_ARRAY = np.arange(256.0)


def loop():
    """Run the reference loop once; returns its duration in seconds."""
    t0 = time.perf_counter()
    x = 0
    for k in range(20000):
        x += k * k % 7
    for _ in range(200):
        _ARRAY.sum()
        np.sqrt(_ARRAY)
    return time.perf_counter() - t0
