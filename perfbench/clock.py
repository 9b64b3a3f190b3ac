"""Machine-speed calibration for the end-to-end times.

On a shared machine the CPU speed one process gets drifts by half or more
over seconds to minutes, with the load of other tenants, and that drift
swamps any program change inside a 20-second run: ten runs of unchanged
code spread by 0.18 to 0.37 (quartile distance over median) in throughput.
So the runner times a fixed piece of pure-Python work (``probe``, which
shares no code with forceps) every ``PROBE_EVERY`` seconds between ops,
and scales each op's time by
``REFERENCE_PROBE_S`` over the probe's median time around that op.  A
calibrated time reads as the time on a machine whose probe takes
``REFERENCE_PROBE_S``; the raw times are printed beside them.

The probe runs only between ops, in the one benchmark thread, so it sees
the machine as the program does.  A program that left work running in the
background between ops would slow the probe and flatter its own calibrated
times; the printed raw times and ``machine_slowdown`` show that case.
"""

from __future__ import annotations

import bisect
import random
import statistics
from array import array
from time import perf_counter

import gen
import oracle

PROBE_EVERY = 0.1  # seconds between probes
WINDOW = 0.25  # seconds around an op whose probes set its speed
# probe time at the reference speed: the fast phases of a 2-vCPU x86-64
# container running CPython 3.11
REFERENCE_PROBE_S = 0.0015

_rng = random.Random(0)
_ADJ = gen.random_connected(_rng, 16, 0.3)
_BLUES = [sum(1 << v for v in _rng.sample(range(16), 6)) for _ in range(8)]


def probe() -> float:
    """Seconds taken by a fixed batch of reference closures."""
    t0 = perf_counter()
    for _ in range(16):
        for blue in _BLUES:
            oracle.chronology(_ADJ, blue)
    return perf_counter() - t0


class SpeedLog:
    """Probe times along a run, and the scale they give each moment."""

    def __init__(self) -> None:
        self.at = array("d")
        self.took = array("d")
        self._due = 0.0

    def record(self) -> None:
        at = perf_counter()
        self.at.append(at)
        self.took.append(probe())
        self._due = perf_counter() + PROBE_EVERY

    def tick(self) -> None:
        """Probe if one is due; call between ops."""
        if perf_counter() >= self._due:
            self.record()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_PROBE_S over the median probe time near [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW)
        hi = bisect.bisect_right(self.at, end + WINDOW)
        if lo == hi:  # no probe that close: take the nearest one
            lo = min(lo, len(self.at) - 1)
            hi = lo + 1
        return REFERENCE_PROBE_S / statistics.median(self.took[lo:hi])

    def slowdown(self) -> float:
        """Median probe time over the reference probe time."""
        return statistics.median(self.took) / REFERENCE_PROBE_S
