"""Contention-corrected timing: wall time rescaled to the speed of a fixed loop.

On a shared host the CPU this benchmark runs on slows down by up to about
1.9x while other tenants load its hyperthread sibling. The fast and slow
spells switch every second or so, so raw wall time depends on the neighbours
more than on the program: pass times of one operation vary by 40% within a
run. `RefClock` samples the CPU's current speed every PERIOD_S by timing a
fixed pure-Python loop from a SIGALRM handler. Handlers run between bytecodes
of the main thread, so the sample is taken on the CPU the program runs on,
in the middle of the measured call. Each slice of a measured call between
two samples is then rescaled by REF_LOOP_S / (the loop's time around that
slice). The result, in reference seconds, is the time the call would take
on a CPU that runs the loop in REF_LOOP_S: an uncontended 2.0 GHz Xeon vCPU.

The samples themselves take about 1% of the time; they are left out of both
the wall and the reference time.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.01
LOOP_N = 1000
# time of _loop() on an uncontended 2.0 GHz Xeon vCPU (typical, not minimum)
REF_LOOP_S = 8.5e-5


def _loop() -> float:
    s = 0.0
    for i in range(LOOP_N):
        s += (i * 0.5) ** 0.5
    return s


class RefClock:
    """Use as a context manager; `measure(fn)` inside it."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []   # (start, end) of each sample
        self._old_handler = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop()
        self.marks.append((t0, time.perf_counter()))

    def __enter__(self) -> "RefClock":
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)          # a speed is known before the first call
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def measure(self, fn):
        """Call fn(); return (its value, wall seconds, reference seconds,
        CPU seconds), all without the time spent in samples."""
        del self.marks[:-1]               # keep the latest sample: the speed at the start
        c0, t0 = time.process_time(), time.perf_counter()
        value = fn()
        t1, c1 = time.perf_counter(), time.process_time()
        marks = [m for m in self.marks if m[0] < t1]
        inside = marks[1:]
        loops = [b - a for a, b in marks]
        wall, ref, prev = t1 - t0, 0.0, t0
        # the slice ending at sample k is scaled by the median loop time of
        # samples k-1, k, k+1, so one sample hit by an interrupt does not count
        for k, (a, b) in enumerate(inside, start=1):
            ref += (a - prev) * REF_LOOP_S / statistics.median(loops[k - 1:k + 2])
            wall -= b - a
            prev = b
        ref += (t1 - prev) * REF_LOOP_S / statistics.median(loops[-2:])
        return value, wall, ref, c1 - c0 - (t1 - t0 - wall)
