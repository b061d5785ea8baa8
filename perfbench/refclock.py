"""A reference clock: CPU times scaled to a fixed speed of the machine.

On a shared virtual machine the speed of the same Python code moves by up
to 2x between phases from seconds to minutes long, so raw CPU times of two
identical runs a few minutes apart differ by more than any useful bound.
The benchmark therefore runs a fixed piece of Python (`reference`, dict and
tuple work like the package's own polynomial arithmetic) on the same CPU
as the measured operations, over and over between them, and reports

    scaled = cpu * NOMINAL_S / (median CPU time of the nearby probes)

that is, the operation's CPU time on a machine where a probe takes
NOMINAL_S.  A single probe is noisy, so each stretch is scaled by the median
of the probes around it: within WINDOW_S of wall time in the parent (a
SpeedLog, probing before and after each child process), and of the
NEIGHBOURS nearest probes inside a measured process (a Ticker, probing every
TICK_S of its CPU time from a profiling-timer signal).  The reference is
benchmark code, so a change to cobordlab moves the operation's time and not
the reference's.  Garbage collection is off while it runs, so its time does
not depend on the heap the measured program left behind.
"""

from __future__ import annotations

import bisect
import gc
import os
import signal
import statistics
import time

# CPU seconds of one probe() on a 2-vCPU virtual machine (Python 3.11) in
# its usual speed phase; scaled times are CPU times at that speed.
NOMINAL_S = 0.030
ROUNDS = 1  # reference() calls per probe
WINDOW_S = 3.0  # a SpeedLog uses the probes this close to a stretch
TICK_S = 0.25  # CPU seconds between a Ticker's probes
NEIGHBOURS = 6  # a Ticker scales a stretch by this many probes around it


def reference() -> int:
    """Arithmetic into a small dict, then larger dicts built from scratch:
    these track the allocation-bound phases (a fresh process building
    generators) that the first alone misses.  They are built one at a time
    (about 4 MB each), so a probe adds little to a process's peak memory."""
    d: dict = {}
    for i in range(20000):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + i * i % 11
    n = len(d)
    for _ in range(3):
        big = {}
        for i in range(20000):
            big[(i, i % 7)] = [i]
        n += len(big)
        del big
    return n


def probe() -> float:
    """CPU seconds of ROUNDS reference() calls, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.process_time()
        for _ in range(ROUNDS):
            reference()
        return time.process_time() - t
    finally:
        if enabled:
            gc.enable()


def factor(probes) -> float:
    """What to multiply a CPU time by, from the probes around it."""
    return NOMINAL_S / statistics.median(probes)


def pin() -> None:
    """Keep this process and its children on one CPU, so the reference runs
    on the CPU that runs the measured operation; then warm the reference."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe()


class SpeedLog:
    """Probes made between child processes, by wall time (CLOCK_MONOTONIC)."""

    def __init__(self):
        self.times: list = []
        self.probes: list = []

    def mark(self) -> float:
        """Probe now; returns the wall time after the probe."""
        cpu = probe()
        self.times.append(time.monotonic())
        self.probes.append(cpu)
        return self.times[-1]

    def factor(self, start: float, end: float) -> float:
        """For a stretch from start to end; ask once the probes after it
        are made."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return factor(self.probes[lo:hi])


class Ticker:
    """Probes every TICK_S of this process's CPU time, from SIGPROF, and
    maps process_time() readings to scaled CPU seconds of the measured
    program; the probes' own time counts as nothing."""

    def __init__(self):
        self.starts: list = []  # process_time() when each probe began
        self.ends: list = []  # ... and ended
        self.probes: list = []  # CPU seconds of each probe
        self.probe_cpu = 0.0
        self._busy = False
        self._tick()
        signal.signal(signal.SIGPROF, lambda *_: self._tick())
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)

    def _tick(self) -> None:
        if self._busy:  # a signal that arrives during a probe
            return
        self._busy = True
        start = time.process_time()
        cpu = probe()
        self._busy = False
        self.starts.append(start)
        self.ends.append(start + cpu)
        self.probes.append(cpu)
        self.probe_cpu += cpu

    def stop(self) -> float:
        """Stop probing; returns the process_time() reading it stopped at."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        t = time.process_time()
        self._tick()
        # _factors[i] scales the stretch after probe i; _cum[i] is the
        # scaled CPU seconds from the end of probe 0 to the start of probe i
        half = NEIGHBOURS // 2
        self._factors = [factor(self.probes[max(0, i - half + 1):i + half + 1]) for i in range(len(self.probes))]
        self._cum = [0.0]
        for i in range(1, len(self.starts)):
            self._cum.append(self._cum[-1] + (self.starts[i] - self.ends[i - 1]) * self._factors[i - 1])
        return t

    def program_time(self) -> float:
        """process_time() less the probes made so far."""
        return time.process_time() - self.probe_cpu

    @property
    def covered(self) -> float:
        """Process CPU seconds from the first probe to the end of the last
        (after stop()); the parent scales the rest of the process itself."""
        return self.ends[-1] - self.starts[0]

    def scaled(self, t: float) -> float:
        """Scaled CPU seconds of the program from the first probe to the
        process_time() reading t (after stop())."""
        i = bisect.bisect_right(self.starts, t) - 1
        if i < 0:
            return (t - self.starts[0]) * self._factors[0]
        return self._cum[i] + max(0.0, t - self.ends[i]) * self._factors[i]

    def between(self, t0: float, t1: float) -> float:
        return self.scaled(t1) - self.scaled(t0)
