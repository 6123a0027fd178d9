"""A machine-speed probe that scales CPU time to a fixed reference speed.

On a shared host the speed of one vCPU drifts by a third and more within
seconds, and by up to a fifth between runs minutes apart, while the
guest sees little steal time and process CPU time equals wall time. A
fixed amount of work then takes a different time on every run, and no
amount of repetition inside one run removes drift between runs.

Every time here is process CPU time (``cpu_clock``), so time the process
spends waiting for a CPU, behind other processes of the guest or while
the host runs another guest (steal), does not count. The probe times a
fixed pure-Python loop every ``PERIOD_S`` of wall time, from a
``SIGALRM`` interval timer, so the samples cover the program's solves as
they run. (A CPU-time interval timer would coarsen the process's CPU
clock to the scheduler tick while it is armed.) Each sample gives the machine's speed as ``REFERENCE_PROBE_S``
divided by the loop's CPU time, and that speed holds until the next
sample. ``scaled(begin, end)`` integrates the speed over a CPU-time
interval and drops the probe's own time from it: the result is the time
the interval's work would take at the reference speed, the speed at
which one probe loop takes ``REFERENCE_PROBE_S``. A change to the program
that makes it do less work lowers the scaled time as it lowers CPU time;
a slower period of the machine lowers the measured speed and leaves the
scaled time as it was.

The loop is integer arithmetic and dictionary stores. Of three loops
tried against repeated solves (this one, a list/set/dict mix, and small
numpy products), it followed the program's slowdowns most closely: on
repeated CM solves over 50 s, the interquartile range of single-solve
times fell from 0.39 to 0.09 of the median.
"""

from __future__ import annotations

import bisect
import signal
from time import process_time as cpu_clock

PERIOD_S = 0.01  # wall time between samples
REFERENCE_PROBE_S = 100e-6  # one probe loop at the reference speed


def probe_loop() -> int:
    store = {}
    total = 0
    for i in range(600):
        total += i * i % 7
        store[i & 63] = total
    return total


class SpeedProbe:
    """Samples the machine's speed while active (a context manager).

    Only one probe may be active in a process: it owns ``SIGALRM``.
    """

    def __init__(self):
        self.times: list[float] = []  # when each sample began
        self.speeds: list[float] = []  # reference-speed seconds per CPU second
        self.probe_s: list[float] = []  # each sample's own CPU time

    def __enter__(self) -> SpeedProbe:
        probe_loop()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_) -> None:
        begin = cpu_clock()
        probe_loop()
        took = cpu_clock() - begin
        self.times.append(begin)
        self.speeds.append(REFERENCE_PROBE_S / took)
        self.probe_s.append(took)

    def scaled(self, begin: float, end: float) -> float:
        """Reference-speed seconds of the work done in the interval
        ``[begin, end]`` of ``cpu_clock``, without the probe's own samples
        inside it."""
        count = len(self.times)  # the handler may append while this runs
        times, speeds = self.times, self.speeds
        first = max(bisect.bisect_right(times, begin, 0, count) - 1, 0)
        total = 0.0
        for k in range(first, count):
            lo = max(times[k], begin)
            hi = min(times[k + 1], end) if k + 1 < count else end
            if lo >= end:
                break
            if hi > lo:
                total += speeds[k] * (hi - lo)
            if begin <= times[k] and times[k] + self.probe_s[k] <= end:
                total -= REFERENCE_PROBE_S
        return max(total, 0.0)
