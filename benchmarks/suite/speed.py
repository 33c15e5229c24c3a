"""Host-speed normalisation for timings taken on a shared host.

On a host shared with other tenants the same code runs up to ~50%
slower for seconds at a time, and ``time.process_time`` slows just as
much as the wall clock, so raw seconds measure the neighbours.  While a
block runs, :class:`SpeedSampler` times a fixed pure-Python reference
loop every :data:`INTERVAL_S` (from a ``SIGALRM`` handler, between
bytecodes of the measured code) and rescales each stretch of the block
by ``NOMINAL_S / (the loop's time at that moment)``: host seconds at
the speed the loop had on the recording host when idle.  The probes'
own time is left out.  On that host, idle, normalised and raw seconds
agree; a slower or busier host changes the raw figure, not this one.

Nothing here imports the program, so a fresh interpreter can use
:func:`reference_s` before importing it.
"""

from __future__ import annotations

# simlint: disable-file=SIM001 -- this module times the host, not the simulation

import signal
import statistics
import time
from typing import List, Tuple

__all__ = ["INTERVAL_S", "NOMINAL_S", "SpeedSampler", "probe", "reference_s"]

#: Median time of :func:`probe` on the recording host (Xeon, 2 vCPUs,
#: Python 3.11) when idle.  Only a unit: it cancels in any comparison.
NOMINAL_S = 0.00044
#: Seconds between probes while a :class:`SpeedSampler` is active.
INTERVAL_S = 0.05

_SLOTS = dict.fromkeys(range(256), 0)


def probe() -> float:
    """Seconds one pass of the reference loop takes right now."""
    start = time.perf_counter()
    x = 0
    slots = _SLOTS
    for i in range(3000):
        x = (x * 1103515245 + 12345) & 0xFFFF
        slots[x & 255] = i
    return time.perf_counter() - start


def reference_s(probes: int = 9) -> float:
    """Median of ``probes`` back-to-back probes."""
    return statistics.median(probe() for _ in range(probes))


class SpeedSampler:
    """Context manager: probe every :data:`INTERVAL_S` during the block."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (start, duration)
        self.start = self.end = 0.0

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append((start, probe()))

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def raw_s(self) -> float:
        """Seconds the block took, probes excluded."""
        return self.end - self.start - sum(d for _s, d in self.samples)

    def normalized_s(self) -> float:
        """The block's seconds at the nominal host speed.

        Stretch ``k`` runs from the end of probe ``k - 1`` to the start
        of probe ``k`` and is scaled by the median of the probes on
        either side of it, so one interrupted probe does not skew it.
        """
        if not self.samples:
            return self.raw_s() * NOMINAL_S / reference_s()
        durations = [d for _s, d in self.samples]
        edges = [self.start] + [s + d for s, d in self.samples]
        stops = [s for s, _d in self.samples] + [self.end]
        total = 0.0
        for k, (a, b) in enumerate(zip(edges, stops)):
            near = durations[max(0, k - 1):k + 2] or durations[-1:]
            total += (b - a) * NOMINAL_S / statistics.median(near)
        return total
