"""Wall time rescaled to a reference CPU speed.

On a shared host the speed of a CPU drifts with its neighbours' load.  On
the two-CPU host this benchmark was written on, a fixed 17 ms pure-Python
loop had 2 s window medians from 15.5 to 22.9 ms, in phases of seconds
and minutes, and the same drift showed in CPU time (it is not steal time).
A wall time therefore says as much about the host's load as about the
program.

``RefClock`` times an operation and, every ``PERIOD_S`` seconds, runs a
probe on the operation's own thread, from a ``SIGALRM`` handler: two short
fixed loops whose times, against their times on a reference CPU, give the
CPU's speed at that moment.  Each stretch of the operation between two
probes is weighted by the mean speed of the probes at its ends, and the
weighted sum is the operation's time at the reference speed.  The probes'
own time is left out of both the raw and the rescaled time.

A program change that makes the operation do more or less work moves the
rescaled time as it moves the raw time; a change of the host's speed
moves the probe as well, and cancels.  Over 8 to 14 back-to-back runs of
each workload's main operation, this probe cut the spread of the times
from 0.11-0.24 of the median to 0.026-0.072.
"""
from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.1

# The probe: two short fixed loops, one of interpreter steps and one of
# small numpy calls, with their times on the reference CPU (about their
# medians on the host above).  A neighbour's load slows the two kinds of
# work by different amounts, and the package's operations mix them.
INTERPRETER_LOOPS = 12_000
INTERPRETER_REF_S = 0.001
NUMPY_CALLS = 300
NUMPY_REF_S = 0.001
_MATRIX = np.ones((4, 4))
_VECTOR = np.ones(4)


def interpreter_loop() -> int:
    s = 0
    for i in range(INTERPRETER_LOOPS):
        s += i * i % 7
    return s


def numpy_loop() -> None:
    for _ in range(NUMPY_CALLS):
        np.sin(_MATRIX @ _VECTOR) + _VECTOR


def probe() -> float:
    """The CPU's current speed relative to the reference: the geometric
    mean of the two loops' speed ratios."""
    t0 = perf_counter()
    interpreter_loop()
    t1 = perf_counter()
    numpy_loop()
    t2 = perf_counter()
    return math.sqrt(INTERPRETER_REF_S / (t1 - t0) * NUMPY_REF_S / (t2 - t1))


class RefClock:
    """Context manager timing the calling (main) thread's operation.

    After exit, ``raw_s`` is the operation's wall time and ``ref_s`` its
    time at the reference speed, both without the probes, and ``marks``
    holds each probe's (start, end, speed).  With ``period=0`` the only
    probes are those just before and after the operation: for work outside
    this thread, such as a child process, with which a probe would compete
    for a CPU.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        # (probe start, probe end, speed relative to the reference)
        self.marks: list[tuple[float, float, float]] = []
        self._previous = None

    def _sample(self) -> None:
        t0 = perf_counter()
        speed = probe()
        self.marks.append((t0, perf_counter(), speed))

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def __enter__(self):
        self._sample()
        if self.period:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def _stretches(self):
        """(length, mean speed) of each stretch between consecutive probes."""
        return [(b[0] - a[1], (a[2] + b[2]) / 2) for a, b in zip(self.marks, self.marks[1:])]

    @property
    def raw_s(self) -> float:
        return sum(length for length, _ in self._stretches())

    @property
    def ref_s(self) -> float:
        return sum(length * speed for length, speed in self._stretches())

