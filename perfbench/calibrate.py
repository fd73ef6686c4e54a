"""Machine-speed calibration for the benchmark's timings.

Shared machines change speed by up to +-25% within a few seconds (other
tenants on the same cores), far more than the changes the benchmark must
resolve.  `kernel()` times a fixed pure-Python loop of dict, tuple and
integer operations, the same kind of work that dominates tcone, and
`normalised(seconds, kernel_s)` rescales a time to the kernel's reference
speed REFERENCE_S, given the kernel's time measured alongside it.  Normalised times are in seconds
on a machine where the kernel takes REFERENCE_S (about this benchmark's
development machine, a 2-core x86-64 VM under Python 3.11).
"""

import statistics
import time

REFERENCE_S = 0.010
# Calls whose kernel samples make up the local speed estimate of a call:
# the call itself and its neighbours, a few seconds of run.  The speed
# drifts on that scale, so a run-wide factor would miss it, and a single
# 10-ms sample is itself noisy (about 8%).
WINDOW = 5
LONG_CALL_S = 5.0


def kernel():
    """Seconds the fixed calibration loop takes right now."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(20000):
        key = (i * 7919) % 1013
        table[key] = (table.get(key, 0) + i * key) % 65521
        acc += (i, key) < (key, i)
    return time.perf_counter() - start


def normalised(seconds, kernel_s):
    return seconds * REFERENCE_S / kernel_s


def normalised_series(calls):
    """Normalise [(seconds, kernel_s)] of consecutive calls, each by the
    median kernel time of the WINDOW calls centred on it.  A call longer
    than LONG_CALL_S spans many speed swings that no sample next to it
    sees, so it gets the median over the whole series instead."""
    kernels = [k for _, k in calls]
    overall = statistics.median(kernels)
    half = WINDOW // 2
    return [normalised(sec, overall if sec > LONG_CALL_S else
                       statistics.median(kernels[max(0, i - half):
                                                 i + half + 1]))
            for i, (sec, _) in enumerate(calls)]
