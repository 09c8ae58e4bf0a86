"""Host time in reference seconds, steady on a host whose speed swings.

The reference host is a shared VM.  The same pure-Python work runs up to
twice as fast in one second as in the next, with CPU time equal to wall
time, so the processor itself changes speed.  Timed on the wall clock
alone, ten repetitions of one input spread by 30 % (quartile distance over
median); timed by this clock, by 5 %.

:class:`HostClock` samples the host's speed while a repetition runs: every
:data:`PERIOD_S` of wall time a ``SIGALRM`` handler runs a fixed pure-Python
loop twice and times the second, warm run, so the loop's time does not
depend on what the workload left in the caches.  The loop shares no code
with the simulator: a change to the simulator moves the workload's time,
not the loop's.  A phase's reference seconds are its wall time, less the
sampling's own time, times :data:`REF_LOOP_S` over the loop's mean time in
that phase: the time the phase would have taken with the host at its
reference speed.  The mean, not the median, because the host slows in
bursts shorter than a sample period, and the mean weighs them by how often
they hit.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

PERIOD_S = 0.05
LOOP_ITERS = 3000
#: The loop's time at the reference speed.  A fixed constant near the
#: loop's mean time on the reference host (2-core Intel Xeon VM, Python
#: 3.11), where the measured speed ranged from 0.6 to 1.2 of it, so
#: reference seconds read close to that host's wall seconds.
REF_LOOP_S = 4.5e-4


def _loop() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(LOOP_ITERS):
        table[i & 63] = i
        total += table.get((i * 7) & 63, 0)
    return total


@dataclass(frozen=True)
class Lap:
    """One phase between two :meth:`HostClock.lap` calls."""

    #: Wall time of the phase, less the time spent sampling.
    wall_s: float
    #: Time spent sampling in the phase (the loop is CPU-bound).
    sampling_s: float
    #: Host speed over the phase: REF_LOOP_S / mean loop time (1 = reference).
    speed: float

    def ref_s(self, host_s: float | None = None) -> float:
        """``host_s`` (default: the phase's wall time), in reference seconds."""
        return (self.wall_s if host_s is None else host_s) * self.speed


class HostClock:
    """Samples the host's speed from a timer signal; see the module doc."""

    def __init__(self) -> None:
        self._loop_s: list[float] = []
        self._sampling_s = 0.0
        self._mark = (time.perf_counter(), 0, 0.0)

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        _loop()
        t1 = time.perf_counter()
        _loop()
        t2 = time.perf_counter()
        self._loop_s.append(t2 - t1)
        self._sampling_s += t2 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._mark = (time.perf_counter(), len(self._loop_s), self._sampling_s)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def lap(self) -> Lap:
        """The phase since :meth:`start` or the last lap; starts the next."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._sample()  # so that every phase has a sample
            now = time.perf_counter()
            started, first, sampling0 = self._mark
            loop_s = self._loop_s[first:]
            sampling_s = self._sampling_s - sampling0
            self._mark = (now, len(self._loop_s), self._sampling_s)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return Lap(wall_s=now - started - sampling_s, sampling_s=sampling_s,
                   speed=REF_LOOP_S / statistics.fmean(loop_s))
