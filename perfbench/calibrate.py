"""Host-speed yardstick: scales CPU times to a reference host speed.

On a shared host the same simulation takes from 1x to 2x the CPU time,
depending on what the neighbours run, and such periods last from
seconds to many minutes. A fixed pure-Python loop, timed while the
simulation runs, slows down with it. Dividing each operation's CPU
time by the loop's slowdown over the same interval removes much of
that drift. The loop calls no simulator code, so a faster simulator
does not make the yardstick faster.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: CPU seconds of one :func:`yardstick` on the reference host (a 2 GHz
#: x86-64 cloud vCPU, Python 3.11, neighbours idle).  Normalized times
#: read as if measured there.
REFERENCE_S = 0.0028


def yardstick(iterations: int = 30_000) -> float:
    """CPU seconds of a fixed integer loop."""
    start = time.thread_time()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return time.thread_time() - start


def host_speed(runs: int = 5) -> float:
    """Reference seconds per CPU second of this host right now (below 1
    while it is slower than the reference): median of ``runs``."""
    return REFERENCE_S / statistics.median(yardstick() for _ in range(runs))


class SpeedMeter:
    """Samples the yardstick every ``interval`` CPU seconds while active.

    A ``SIGPROF`` handler runs the yardstick between bytecodes of
    whatever is executing; it touches no simulator state.  ``spent`` is
    the CPU time the samples took, to be subtracted from the timings
    they interrupted.  Timings use ``time.thread_time``: while a
    process-wide CPU timer is armed, Linux may advance the process CPU
    clock only at scheduler ticks, but the thread clock stays exact.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.samples: List[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.thread_time()
        self.samples.append(yardstick())
        self.spent += time.thread_time() - start

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def clock(self) -> float:
        """Process CPU seconds, not counting the samples' own time."""
        return time.thread_time() - self.spent

    def speed_since(self, first: int, at_least: int = 4) -> float:
        """Host speed over the samples from index ``first`` on, widened
        back to the last ``at_least`` samples for a short interval."""
        start = max(0, min(first, len(self.samples) - at_least))
        window = self.samples[start:]
        if not window:
            return host_speed()
        return REFERENCE_S / statistics.fmean(window)
