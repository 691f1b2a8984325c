"""How fast the host runs Python right now, from a fixed calibration kernel.

The benchmark's hosts are shared: Python code there runs in a fast and a slow
state about 1.7x apart, switching several times a second, and the share of
time spent slow drifts over minutes. The simulator slows with this kernel,
though by less (see `EXPONENT`). The benchmark therefore times the kernel
just before and just after each part of a simulation run and scales the
part's host time to the speed at which the kernel takes `REFERENCE_S`.

The kernel does what the simulator's event loop does: heap pushes and pops
of timestamped tuples, attribute updates on small objects, dictionary
accumulation and float arithmetic. It does not import the simulator, so no
change to the simulator changes it.
"""

from __future__ import annotations

import heapq
import math
import time

# Seconds the kernel takes on the reference host (a shared 2-core x86-64
# machine running CPython 3.11, in its fast state). Scaled times are host
# seconds at that speed.
REFERENCE_S = 0.005

# The simulator slows less than the kernel: its host time grows as the
# kernel's time to these powers. Fitted on the reference host by regressing
# the log host time of repeated runs of fixed jobs on the log of the kernel
# times bracketing them, averaged over windows of 6 and 12 consecutive runs:
# 0.74-0.86 for set-up and 0.59-0.67 for runs of the full-scale and desk
# jobs (correlation 0.8-0.95).
EXPONENT = {"setup": 0.8, "run": 0.65}

KERNEL_STEPS = 4000


class _Record:
    __slots__ = ("key", "weight", "hits")

    def __init__(self, key: int):
        self.key = key
        self.weight = 1.0 + (key % 17) * 0.25
        self.hits = 0


def kernel(steps: int = KERNEL_STEPS) -> float:
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(steps):
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.001, i, _Record(i)))
        if len(heap) > 64:
            t, k, rec = heapq.heappop(heap)
            rec.hits += 1
            table[k & 255] = table.get(k & 255, 0.0) + t * rec.weight
            acc += math.hypot(t, rec.weight)
    return acc + len(table)


def slowdown(before: float, after: float, part: str) -> float:
    """How much slower than the reference host a part ("setup" or "run")
    ran, from the kernel times `before` and `after` it."""
    return ((before + after) / (2 * REFERENCE_S)) ** EXPONENT[part]


def sample(clock=time.perf_counter) -> float:
    """Host seconds one run of the kernel takes now."""
    t0 = clock()
    kernel()
    return clock() - t0
