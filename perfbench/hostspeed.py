"""Host-speed calibration of the benchmark's timings.

The benchmark host is shared with other tenants, and its speed swings by up
to 1.5x over tens of seconds, longer than a run, so no run length averages
the swings out. A fixed kernel, which does not use uavps, runs before the
first op of a pass and after every op, and around every set-up process. A
time is scaled by ``REFERENCE_S`` over the mean of the kernel times around
it, so it reads in seconds of a reference host on which the kernel takes
``REFERENCE_S``. A slow spell of the host stretches the op and the kernel
alike and cancels out; a change to uavps moves the op alone.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on the reference host: about its time on a quiet 2-CPU x86
# host, so scaled figures read close to raw ones there.
REFERENCE_S = 1.4e-3

_DATA = np.random.default_rng(0).random(40_000)


def _tuples(total: int, parts: int):
    # small recursive generator of tuples, like the planner's enumeration
    if parts == 1:
        yield (total,)
        return
    for n in range(total + 1):
        for rest in _tuples(total - n, parts - 1):
            yield (n,) + rest


def kernel_seconds() -> float:
    """Wall time of one kernel run. Its three parts mimic the three kinds of
    work in uavps: interpreter loops over tuples and dicts, scalar numpy
    calls per table cell, and vectorised numpy over large arrays."""
    start = time.perf_counter()
    weights = {i: 0.5 * i for i in range(9)}
    acc = sum(weights[p[0]] + weights[p[-1]] for p in _tuples(8, 5))
    for i in range(120):
        a = np.asarray(0.01 * i, dtype=float)
        acc += float(np.where(a < 0.0, 0.0, -np.expm1(-0.5 * np.maximum(a, 0.0))))
    acc += float(np.sum(np.where(_DATA < 0.5, _DATA * 2.0, np.log1p(_DATA))))
    return time.perf_counter() - start
