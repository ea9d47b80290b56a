"""The speed of the machine while a run measures, and times scaled by it.

On a shared host the speed at which one core runs pure-Python code moves
by up to 1.7x within seconds, as other tenants come and go (measured on a
2-vCPU virtual machine: a fixed loop took 20 ms in one half minute and
34 ms in the next, with no CPU steal reported).  A time measured at one
moment therefore says as much about the neighbours as about the package.

SpeedProbe samples that speed all through a run: a thread of the
benchmark's own process times a fixed piece of work (calibrate) in its
own CPU time every PERIOD_S seconds, about a tenth of one core.  Before
each sample the thread moves to the core on which the process being
measured runs, since the cores need not run at the same speed: on the
machine above, a probe on the other core sometimes tracked a job worse
than no scaling at all.  A time measured over [t0, t1] is then reported
at the reference speed, the speed at which calibrate costs REFERENCE_S:

    scaled = measured * REFERENCE_S / mean cost of calibrate over [t0, t1]

The calibration touches nothing of the package, so a change to the
package moves the measured time and leaves the cost of calibrate alone.
The sample shares the measured process's core for a few milliseconds in
every PERIOD_S, the same share in every run.

Timestamps are time.perf_counter(), which on Linux is the system-wide
monotonic clock, so times taken in child processes can be scaled too.
"""
from __future__ import annotations

import bisect
import os
import threading
import time
from fractions import Fraction

# CPU seconds of one calibrate() at the reference speed (about its median
# on the machine the benchmark was built on)
REFERENCE_S = 0.004
PERIOD_S = 0.05
# sampling starts this long before the first measurement
WARMUP_S = 0.5
# a short interval is scaled by the samples within this many seconds of it
PAD_S = 0.5
MIN_SAMPLES = 3


def calibrate():
    """Fixed work of the kinds the package spends its time in: rational
    arithmetic on growing integers, tuple-keyed dict and list updates."""
    total = Fraction(0)
    table = {}
    for i in range(1, 600):
        total += Fraction(1, i % 97 + 1) * Fraction(i, 7)
        table[(i, i % 13)] = [i, i + 1]
    return total


def running_cpu(pids):
    """The core on which a thread of one of these processes runs now, or
    else last ran; None when there is no such process (or no /proc)."""
    last = None
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{pid}/task/{tid}/stat") as fh:
                    stat = fh.read()
            except OSError:
                continue
            # fields after the parenthesised command name: the state is
            # field 3 of proc(5), the core last run on field 39
            fields = stat[stat.rindex(")") + 2:].split()
            if fields[0] == "R":
                return int(fields[36])
            if last is None:
                last = int(fields[36])
    return last


class SpeedProbe:
    """Samples the cost of calibrate() from a background thread between
    start() and stop(), on the core of the processes follow() names;
    scale() turns measured times into times at the reference speed."""

    def __init__(self, period=PERIOD_S, follow=lambda: ()):
        self.period = period
        self.follow = follow
        self.times = []     # midpoint of each sample, perf_counter seconds
        self.costs = []     # CPU seconds of each sample
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def _sample(self):
        cores = os.sched_getaffinity(0)
        while not self._stop.wait(self.period):
            cpu = running_cpu(self.follow())
            # pid 0 is the calling thread
            os.sched_setaffinity(0, cores if cpu is None else {cpu})
            began = time.perf_counter()
            spent = time.thread_time()
            calibrate()
            spent = time.thread_time() - spent
            self.record((began + time.perf_counter()) / 2, spent)

    def record(self, when, cost):
        with self._lock:
            self.times.append(when)
            self.costs.append(cost)

    def cost(self, t0, t1):
        """Mean cost of calibrate() over [t0, t1]: the samples taken
        within PAD_S of the interval, or the MIN_SAMPLES nearest ones."""
        with self._lock:
            n = len(self.times)
        # samples are only ever appended, so the first n stay as they are
        times, costs = self.times, self.costs
        if n == 0:
            raise ValueError("no speed samples were taken")
        lo = bisect.bisect_left(times, t0 - PAD_S, 0, n)
        hi = bisect.bisect_right(times, t1 + PAD_S, 0, n)
        if hi - lo < MIN_SAMPLES:
            want = min(MIN_SAMPLES, n)
            mid = bisect.bisect_left(times, (t0 + t1) / 2, 0, n)
            lo = max(0, min(mid - want // 2, n - want))
            hi = lo + want
        window = costs[lo:hi]
        return sum(window) / len(window)

    def factor(self, t0, t1):
        """Reference speed over machine speed for [t0, t1]."""
        return REFERENCE_S / self.cost(t0, t1)

    def scale(self, t0, t1, measured=None):
        """measured seconds (default t1 - t0) at the reference speed."""
        if measured is None:
            measured = t1 - t0
        return measured * self.factor(t0, t1)
