"""The machine's speed, sampled while requests run, to scale their times.

The benchmark runs on a shared VM whose speed flips between a fast and a
slow state many times a minute: in 50 ms samples of a fixed loop, the slow
state held for 50 ms to 15 s at a time and for 10% to 80% of any 20 s
window.  No statistic of raw times over a run of tens of seconds steadies
that, because the share of slow time differs from run to run.

So a SIGALRM timer runs a fixed pure-Python loop (the probe, 0.1 to 0.3 ms)
every INTERVAL seconds while requests are timed, in the same thread, and
records how long each probe took.  A request's time, less the probes that
ran inside it, is scaled by REFERENCE over the mean probe time from WINDOW
before the request to WINDOW after it.  The result reads as the request's
time on a machine where the probe takes REFERENCE seconds.  The probe does
not call synlat, so a change to the program moves request times but not
probe times, and the scaled time moves with it.  README.md gives the
spreads with and without scaling.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

clock = time.perf_counter

INTERVAL = 0.02        # s between probes, which take about 1% of the time
WINDOW = 0.1           # s on each side of a request whose probes scale it
REFERENCE = 2e-4       # s: the probe's time at the speed times are scaled to


def probe() -> int:
    """A fixed loop of dict, integer and call work, the kind synlat does."""
    d = {}
    for i in range(1500):
        k = (i * 7919) % 211
        d[k] = d.get(k, 0) + i
    return len(d)


class Speedometer:
    """Probes the machine's speed on a timer; scales intervals by it.

    Between start() and stop(), every INTERVAL seconds the main thread runs
    probe() between two bytecodes of whatever it is doing.  `spent` is the
    total time the probes took, so a caller can take it out of a timing.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:            # a signal delivered during a probe
            return
        self._busy = True
        t = clock()
        probe()
        dt = clock() - t
        self.starts.append(t)
        self.times.append(dt)
        self.spent += dt
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Mean probe time from WINDOW before start to WINDOW after end, over REFERENCE.

        Call it once the timer has run WINDOW past end.
        """
        i = bisect.bisect_left(self.starts, start - WINDOW)
        j = bisect.bisect_right(self.starts, end + WINDOW)
        return statistics.fmean(self.times[i:j]) / REFERENCE

    def scaled(self, start: float, end: float, busy: float) -> float:
        """`busy` seconds measured between start and end, at the reference speed."""
        return busy / self.factor(start, end)
