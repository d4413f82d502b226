"""Time measured against the speed of a shared machine.

A shared VM (2 vCPUs of an Intel Xeon host) runs the same Python code up
to twice as fast at one moment as a few seconds later, as other tenants
come and go (a 60 s trace of 0.2 s classify batches ranged from 175 to
330 ms).  A run
of 30 s cannot average that out.  So every pass also runs a short, fixed
calibration burst every ``TICK_S`` seconds, and the parent scales each
measured interval by ``CAL_REF_S`` over the duration of the bursts around
it.  End-to-end times are reported in these reference seconds: the time the
work takes at the speed at which one burst takes ``CAL_REF_S``.  Over the
same trace the classify batches measured in bursts stayed within 5 %.

The child imports this module only after set-up is timed, so the imports
here do not shorten the set-up a CLI user pays for.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Optional

TICK_S = 0.2  # a burst this often while a pass runs its queries
CAL_REF_S = 0.004  # one burst at the reference speed (about that VM's fast state)
SETUP_BURSTS = 5  # bursts right after each set-up; their median scales it
WINDOW = 2  # a gap's speed is the median of the bursts this many places around it


def burst() -> None:
    """Fixed work of the kind the library does: Fraction arithmetic.  The
    cyclic garbage collector is off, so the library's heap does not change
    its duration."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        s = Fraction(0)
        for i in range(1, 801):
            s += Fraction(i, i + 7) * Fraction(3, i + 1)
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """The [start, end] of every burst of one process.  ``observer``, if
    given, is called with the start and end of each burst."""

    def __init__(self, observer: Optional[Callable[[float, float], None]] = None):
        self.bursts: list[tuple[float, float]] = []
        self.observer = observer

    def burst(self, *_signal) -> None:
        t0 = time.perf_counter()
        burst()
        t1 = time.perf_counter()
        self.bursts.append((t0, t1))
        if self.observer is not None:
            self.observer(t0, t1)

    @contextmanager
    def ticking(self):
        """Bursts at the start, every TICK_S seconds on SIGALRM (also in the
        middle of a long query), and at the end."""
        self.burst()
        previous = signal.signal(signal.SIGALRM, self.burst)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.burst()


def gaps(bursts) -> list[tuple[float, float, float]]:
    """(start, end, burst duration) of each interval between consecutive
    bursts.  Its duration is the median of the bursts at most WINDOW places
    from either end, so one burst slowed by an interrupt moves no gap much."""
    durations = [end - start for start, end in bursts]
    out = []
    for k in range(1, len(bursts)):
        near = durations[max(0, k - 1 - WINDOW): k + WINDOW + 1]
        out.append((bursts[k - 1][1], bursts[k][0], statistics.median(near)))
    return out


def reference_seconds(start: float, end: float, gap_list) -> float:
    """The time from start to end outside bursts, at the reference speed.
    The interval must lie between the first and the last burst."""
    return sum((min(end, g_end) - max(start, g_start)) * CAL_REF_S / duration
               for g_start, g_end, duration in gap_list
               if g_start < end and g_end > start)


def scale(seconds: float, bursts) -> float:
    """A time measured just before ``bursts``, at the reference speed."""
    return seconds * CAL_REF_S / statistics.median(end - start for start, end in bursts)
