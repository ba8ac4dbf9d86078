"""The host's speed, measured beside the program by a fixed kernel.

The benchmark runs on a few virtual CPUs of a shared host.  Other tenants
slow it by up to 2x, in bursts of under a second and in periods of
minutes, and every timing of a run moves with them (NOTES.md, noise
study).  Steal time does not show it (CPU time equals wall time), so the
contention is for the cores' shared resources, not for the CPUs.

A calibration slice is a fixed piece of pure-Python work that does not
touch the program: integer arithmetic and stores into a small dict, the
interpreter work the matcher's inner loops are made of.  Its working set
stays in the core's own caches, so the program's memory traffic before a
probe does not slow the probe, and the slice adds nothing to the run's
peak memory.  The benchmark runs slices right
before and right after each timed operation.  Their time, against the
slice's time on a quiet host (``REFERENCE_SLICE_S``), is the host's
slowdown at that moment, and the operation's time divided by it is what
the operation would take on the quiet host.  The benchmark code, and so
the kernel, is the same when two commits are compared; only the
program's share of each timing can differ.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

#: Iterations of one slice: about 2 ms on a quiet host.
SLICE_ITERATIONS = 12_000
#: One slice's time on a quiet host, rounded (2-CPU Xeon guest, Python
#: 3.11.7): the unit the benchmark's times are scaled to.
REFERENCE_SLICE_S = 2.0e-3
#: Probes around one operation run for about this share of its time on
#: each side, within the limits below.
PROBE_SHARE = 0.1
MIN_SLICES = 1
MAX_SLICES = 100


def calibration_slice(n: int = SLICE_ITERATIONS) -> int:
    table = {}
    total = 0
    for i in range(n):
        total += i * i % 7
        table[i & 1023] = total
    return total


class HostMeter:
    """Probes the host's speed around timed operations."""

    def __init__(self) -> None:
        #: Every slice time measured, for the run's summary.
        self.slices: List[float] = []

    def probe(self, slices: int) -> float:
        """Run ``slices`` calibration slices; their mean time."""
        clock = perf_counter
        started = clock()
        for _ in range(slices):
            t0 = clock()
            calibration_slice()
            self.slices.append(clock() - t0)
        return (clock() - started) / slices

    def slices_for(self, seconds: float) -> int:
        wanted = round(seconds * PROBE_SHARE / REFERENCE_SLICE_S)
        return max(MIN_SLICES, min(MAX_SLICES, wanted))

    def timed(self, op: Callable[[], T], expected_s: float) -> Tuple[T, float, float]:
        """Run ``op`` between two probes sized for an operation of about
        ``expected_s``; returns its result, its wall time, and its time
        scaled to the quiet host."""
        slices = self.slices_for(expected_s)
        before = self.probe(slices)
        started = perf_counter()
        result = op()
        elapsed = perf_counter() - started
        after = self.probe(slices)
        return result, elapsed, elapsed * self.scale(before, after)

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Quiet-host time over measured time, from the probes around it."""
        return 2 * REFERENCE_SLICE_S / (before + after)

    def slowdown(self) -> float:
        """The run's median slice time over the quiet host's."""
        return statistics.median(self.slices) / REFERENCE_SLICE_S if self.slices else 1.0
