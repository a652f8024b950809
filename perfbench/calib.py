"""Host-speed calibration: a fixed loop timed between the timed calls.

The benchmark runs on a few cores of a shared host whose cores flip, many
times a second, between their full speed and about half of it (another
tenant on the same physical core), and the share of time spent slow drifts
from minute to minute: the same code took 0.75x to 1.2x its typical time
from one run to the next.  CPU time moves with wall time, so the slowdown is
in the core, not in waiting.  The loop below mixes plain Python arithmetic
with small numpy operations, like the package's Newton loops and sampling,
and uses nothing of ``cceff``: a change to the program cannot change its
time.  The benchmark times it before each pass's interpreter starts, after
the import and after every call.  Time spent over a
pass is proportional to the mean probe time over it, so ``run.py`` scales
the pass's times by ``REF_PROBE_S`` over that mean: they then read as on a
host where the probe takes exactly ``REF_PROBE_S``.  The probe runs in one
process only, so a worker pool's own contention for the cores stays in the
scaled times.  On the 2-vCPU Xeon VM
the benchmark was written on, the probe takes 8-10 ms at full speed.
"""

import statistics
import time

import numpy as np

REF_PROBE_S = 0.010  # the reference host speed: the probe takes 10 ms
PROBE_REPS = 3  # probes per measurement point
_ITERATIONS = 12000


def probe_s():
    """Wall seconds of one run of the fixed loop."""
    t0 = time.perf_counter()
    acc = 0
    a = np.ones(8)
    for i in range(_ITERATIONS):
        acc += i * i
        a = a * 1.0000001
    return time.perf_counter() - t0


def probes():
    """PROBE_REPS probe times, in seconds."""
    return [probe_s() for _ in range(PROBE_REPS)]


def scale(probe_times):
    """Factor that turns a time measured among these probes into reference seconds."""
    return REF_PROBE_S / statistics.mean(probe_times)
