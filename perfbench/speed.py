"""How fast this CPU runs Python, sampled for the whole benchmark run.

On a shared host the same code runs at different speeds from one second
to the next: a vCPU whose hyper-thread sibling is busy executes the same
instructions up to ~1.7x slower, in bursts of a fraction of a second to
minutes.  That swing is wider than any regression bound worth having, so
every timing the benchmark reports is converted to *nominal* seconds:
the time the interval would have taken at a fixed reference speed.

:class:`SpeedSampler` interrupts the process every ``INTERVAL_S`` with
``SIGALRM`` and times a fixed snippet of interpreter work by this
thread's CPU clock.  The mean speed of the samples inside an interval,
relative to ``REFERENCE_S``, scales that interval's wall (or CPU) time.
Sampling costs under 1% of the run and is subtracted.  Pool workers
inherit no timer: a pooled call is scaled by what the parent measured.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.05
#: Snippet duration at the reference speed: a fixed scale, about what the
#: snippet takes on the 2-CPU Xeon VM the benchmark was tuned on, so that
#: nominal seconds read close to wall seconds there.
REFERENCE_S = 1.3e-4


def _snippet() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(400):
        table[i & 63] = i
        total += len(str(i)) + table[i & 63]
    return total


class SpeedSampler:
    """Speed samples on a wall-clock timer; see the module docstring."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.speeds: list[float] = []
        self.costs: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        wall = time.perf_counter()
        cpu = time.thread_time()
        _snippet()
        spent = time.thread_time() - cpu
        if spent > 0:
            self.stamps.append(wall)
            self.speeds.append(REFERENCE_S / spent)
            self.costs.append(time.perf_counter() - wall)

    def _window(self, start: float, end: float) -> tuple[int, int]:
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        if lo == hi:
            # Shorter than one interval: the neighbouring samples.
            lo, hi = max(0, lo - 1), min(len(self.stamps), hi + 1)
        return lo, hi

    def factor(self, start: float, end: float) -> float:
        """Mean speed relative to the reference over ``[start, end]``."""
        lo, hi = self._window(start, end)
        return statistics.fmean(self.speeds[lo:hi]) if hi > lo else 1.0

    def overhead(self, start: float, end: float) -> float:
        """Seconds the sampler itself took inside ``[start, end]``."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        return sum(self.costs[lo:hi])

    def nominal(self, start: float, end: float, seconds: float | None = None) -> float:
        """Nominal seconds of ``[start, end]``: its wall time, or the
        given CPU *seconds* spent in it, less sampling, at reference speed."""
        measured = end - start if seconds is None else seconds
        return (measured - self.overhead(start, end)) * self.factor(start, end)
