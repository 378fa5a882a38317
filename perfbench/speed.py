"""Core speed, measured on the same core while the timed work runs.

On the shared 2-core host this benchmark was built on, the same code runs
at speeds that differ by up to 2 times from one second to the next, on
each core independently of the other, and the wall clock also counts the
bursts in which the host runs other guests instead of this one. A probe
before and after a step of several seconds misses most of that.

So every timed window is measured in the CPU time of the thread that runs
it, and a SIGPROF timer interrupts the process every ``PERIOD_S`` of its
CPU time to run ``probe``: a fixed piece of Fraction and big-integer
arithmetic, the same kind of work as varprec's, without varprec. A
window's CPU time, less the probes inside it, is multiplied by
``PROBE_REF_S`` over the mean time of the probes in it and of those that
ran less than ``FRESH_S`` before it. A window with fewer than ``NEAR``
such probes, short or after the process sat idle, runs the rest when it
closes.
Windows therefore read in seconds at the reference speed, where one probe
takes ``PROBE_REF_S``.

Thread CPU time, not process CPU time: while a CPU timer is armed, Linux
updates the process clock only at scheduler ticks. Timers are not
inherited across ``fork``; a forked worker calls ``start`` again. Without
``start`` a window reads plain CPU seconds.
"""

from __future__ import annotations

import atexit
import os
import signal
from fractions import Fraction
from time import perf_counter, thread_time
from typing import List, Optional, Tuple

#: CPU seconds between probes
PERIOD_S = 0.05
#: probe CPU seconds at the reference speed: a fixed scale, near the probe's
#: typical time on the 2-core host the figures in README.md come from
PROBE_REF_S = 1.2e-3
#: probes that a window's speed rests on at least
NEAR = 4
#: wall seconds for which a probe still tells the speed of the next window
FRESH_S = 0.25

#: (thread CPU time and wall time at the probe's start, probe CPU seconds)
_log: List[Tuple[float, float, float]] = []
_pid: Optional[int] = None


def probe() -> float:
    """CPU seconds of about a millisecond of Fraction and big-integer
    arithmetic."""
    t0 = thread_time()
    acc = Fraction(1, 3)
    for i in range(1, 100):
        acc = acc * Fraction(i, i + 1) + Fraction(1, i)
        acc = Fraction(acc.numerator % (1 << 80) + 1, acc.denominator % (1 << 80) + 1)
    return thread_time() - t0


def _on_tick(signum, frame) -> None:
    _log.append((thread_time(), perf_counter(), probe()))


def start() -> None:
    """Probe this process from now on; idempotent within one process."""
    global _pid
    if _pid == os.getpid():
        return
    _pid = os.getpid()
    _log.clear()
    signal.signal(signal.SIGPROF, _on_tick)
    signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
    # at exit the interpreter restores the signal's default action, which kills
    atexit.register(stop)


def stop() -> None:
    global _pid
    signal.setitimer(signal.ITIMER_PROF, 0)
    _pid = None


class Window:
    """A timed window of the calling thread's CPU time. ``t0`` defaults to
    now; 0.0 opens it at the start of the thread."""

    def __init__(self, t0: Optional[float] = None):
        self.i0 = len(_log) if t0 is None else 0
        self.t0 = thread_time() if t0 is None else t0
        self.w0 = perf_counter()

    def seconds(self) -> float:
        """CPU seconds since the window opened, less the probes in it, at
        the reference speed."""
        t1 = thread_time()
        inside = [p for t, _, p in _log[self.i0:] if t >= self.t0]
        busy = t1 - self.t0 - sum(inside)
        if _pid is None:
            return busy
        near = inside + [p for _, w, p in _log[max(0, self.i0 - NEAR):self.i0]
                         if w >= self.w0 - FRESH_S]
        while len(near) < NEAR:
            near.append(probe())
        return busy * PROBE_REF_S / (sum(near) / len(near))
