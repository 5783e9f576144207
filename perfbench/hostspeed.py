"""Timing that is scaled to a reference host speed.

The benchmark runs on shared virtual machines whose speed drifts: a fixed
piece of work takes from 1.0x to 2x its fastest time, in states that last
from under a second to many minutes.  The process's CPU time drifts with
its wall time, so the work really runs slower; it is not descheduled.  A
whole run can sit in one state, so more samples within a run cannot take
the drift out, and two sets of runs minutes apart can differ by a third.

The probe is a fixed piece of work that does not touch the library, in
four parts of about equal time: an interpreted loop, and numpy gathers
from arrays of 128 KiB, of 2 MiB (a Cayley table indexed by its own rows,
as the library does) and of 8 MiB, twice the L2 cache of the reference
host, so that it slows down with the interpreter's and each cache level's
share of the host.  A
probe runs its work twice and times the second run, whose data the first
has just loaded, so that what the call being measured left in the caches
barely moves it.  ``Probe.timed`` runs a probe before and after the call,
and inside the call a SIGALRM timer runs one every ``INTERVAL`` seconds on
the same thread.  The call's time is its wall time minus the probes run
inside it, times the host's speed relative to the reference host, which is
the mean over those probes of ``NOMINAL_S`` / probe time: the time the
call would take on a host where the probe takes ``NOMINAL_S``.  A short
call has only the two probes around it, and one probe's time scatters by
a fifth, so the latest earlier probes make up ``MIN_PROBES``.  (The probes
inside a call are spread evenly over its wall time, and the work a call
gets done in a stretch of time is proportional to the host's speed then,
so the mean of the speeds, not of the probe times, is the right weight; a
probe slowed by a stray interrupt also moves it little.)  The unscaled
time is returned as well.

The probe's arrays add about 12 MiB to the process's resident set.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, Callable

import numpy as np

# Probe time on the reference host: a round figure a little below the
# probe's median inside the workloads' ops (1.2-1.6 ms) on a 2-vCPU x86_64
# virtual machine (Intel Xeon, 2.1 GHz), Python 3.11, numpy 2.4.
NOMINAL_S = 0.0010
INTERVAL = 0.1
MIN_PROBES = 8

clock = time.perf_counter

_rng = np.random.default_rng(20061105)
_SMALL = np.arange(1 << 14, dtype=np.int64)
_SMALL_PERM = _rng.permutation(1 << 14)
_BIG = np.arange(1 << 21, dtype=np.int32)
_BIG_IDX = _rng.integers(0, 1 << 21, 1 << 14)
_TABLE = _rng.integers(0, 512, (512, 512))


def _work() -> None:
    s = 0
    d = {}
    for i in range(1500):
        s += i * i % 7
        d[i & 511] = s
    x = _SMALL
    for _ in range(8):
        x = x[_SMALL_PERM]
    for _ in range(4):
        _BIG[_BIG_IDX].sum()
    _TABLE[_TABLE[0]].sum()


def probe() -> tuple[float, float, float]:
    """Run the probe once; returns its (start, end) on ``clock`` and the
    time of its second, timed run."""
    t0 = clock()
    _work()
    t1 = clock()
    _work()
    t2 = clock()
    return t0, t2, t2 - t1


class Probe:
    """Times calls and scales them to the reference host speed."""

    def __init__(self):
        self._inside: list[tuple[float, float, float]] = []
        self.times: list[float] = []  # every timed probe run, in order
        for _ in range(5):  # warm the probe's caches and allocator
            probe()

    def _on_alarm(self, signum, frame):
        self._inside.append(probe())

    def timed(self, fn: Callable[[], Any]) -> tuple[Any, BaseException | None, float, float]:
        """Call fn; returns (result, exception, scaled seconds, measured
        seconds).  The measured seconds exclude the probes run inside."""
        before = probe()
        self._inside = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        out = err = None
        t0 = clock()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            out = fn()
        except Exception as e:  # the caller decides whether this was expected
            err = e
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = clock()
            signal.signal(signal.SIGALRM, previous)
        after = probe()
        inside = self._inside
        # an alarm that came as the timer stopped runs its probe after t1
        busy = sum(max(0.0, min(b, t1) - max(a, t0)) for a, b, _ in inside)
        measured = t1 - t0 - busy
        times = [p[2] for p in [before, *inside, after]]
        self.times += times
        if len(times) < MIN_PROBES:
            times = self.times[-MIN_PROBES:]
        speed = statistics.fmean(NOMINAL_S / t for t in times)
        return out, err, measured * speed, measured
