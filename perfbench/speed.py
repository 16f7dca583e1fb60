"""Host-time at a reference CPU speed.

The benchmark runs on machines whose cores are shared with other
tenants. On the 2-core x86 box it was tuned on, a core's speed halves
for episodes of about a second and drifts by 30-50% over minutes, so
the wall time of identical work varies by 30% from run to run. A fixed
kernel timed right next to the measured work tracks those swings: the
benchmark reports host times *at the reference speed*, wall time x
``REF_NOMINAL_S`` / kernel time. The kernel is the benchmark's own
code, so a change to the program moves these times as it would move
wall time on an undisturbed core. There the kernel takes about
``REF_NOMINAL_S`` and the scaled time is the wall time.
"""

from __future__ import annotations

import gc
from statistics import median
from time import perf_counter
from typing import List

#: The kernel's time on an undisturbed core of a 2.1 GHz x86 box, s.
REF_NOMINAL_S = 1.25e-3
#: Kernel timings taken on each side of one long timed call.
BRACKET_SAMPLES = 9


def _kernel() -> int:
    # Dict updates and integer arithmetic, like the simulator's inner
    # loops, in a footprint that fits any cache.
    table: dict = {}
    total = 0
    for i in range(8_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += i * i
    return total


def reference_s() -> float:
    """One timing of the kernel, with the collector off so that the
    program's heap size does not enter it."""
    gc.disable()
    try:
        started = perf_counter()
        _kernel()
        return perf_counter() - started
    finally:
        gc.enable()


def reference_samples(n: int = BRACKET_SAMPLES) -> List[float]:
    return [reference_s() for _ in range(n)]


def at_reference(wall_s: float, ref_s: float) -> float:
    """``wall_s`` measured while the kernel took ``ref_s``, scaled to
    the reference speed."""
    return wall_s * REF_NOMINAL_S / ref_s


def bracket(before: List[float], after: List[float]) -> float:
    """Kernel time for a call timed between two sample sets."""
    return median(before + after)
