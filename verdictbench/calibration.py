"""The benchmark's reference clock.

A shared host changes speed while the benchmark runs: on a 2-vCPU VM a fixed
pure-Python loop ran anywhere from 226 to 366 times per second in
consecutive seconds, with CPU time equal to wall time, and the speed drifts
over minutes as well.  Raw wall times then spread from run to run by more
than any bound that would still catch a regression.

So every time the benchmark reports is read on a reference clock: the wall
time measured, multiplied by ``NOMINAL_UNIT_S`` over the time a fixed
calibration unit took at that moment.  Calibration units run between the
inputs, outside the timed calls, for ``CAL_SHARE`` of the measured time;
the current speed is the median of the last ``WINDOW`` units.  On one fixed
fuzz-small input sent for 30 s, the coefficient of variation of the median
latency of 2-second windows was 0.023 raw and 0.005 scaled; in an earlier
probe with an unsteadier host and a unit of the same kind, 0.15 raw and
0.008 scaled.

The unit is benchmark code only: the reference oracle of ``reference.py`` on
a fixed set of seeded plain-data tasks, made here without taskdec, so no
change to taskdec moves the clock.  A reported millisecond is a millisecond
on a machine where one unit takes ``NOMINAL_UNIT_S``.
"""
from __future__ import annotations

import random
import statistics
from collections import deque
from time import perf_counter

import reference as ref

# A typical unit time on a 2-vCPU Linux VM (Python 3.11.7), so that
# reference-clock times read close to that machine's wall times.
NOMINAL_UNIT_S = 0.00065
CAL_SHARE = 0.1
WINDOW = 25
CASES = 4


def _local(rng: random.Random, events: str) -> ref.Fsm:
    states = range(rng.randint(3, 4))
    return ref.Fsm.of(
        [0], events, [(s, e, rng.choice(states)) for s in states for e in events if rng.random() < 0.7]
    )


def _case(rng: random.Random) -> ref.Case:
    """A seeded task of at most 16 states: the product of two agents' local automata.

    Agent 1 owns a, b and agent 2 owns c, d; both take part in s.  Such a
    task decomposes, so the oracle walk runs to the end.
    """
    task = ref.product(_local(rng, "abs"), _local(rng, "cds"))
    return ref.Case(
        task=task,
        agents=(1, 2),
        local={1: frozenset("abs"), 2: frozenset("cds")},
        channels=frozenset(),
        failed={},
        plants={},
        controllers={},
    )


_rng = random.Random("verdictbench-calibration")
UNIT_CASES = [_case(_rng) for _ in range(CASES)]


def unit() -> float:
    """Run one calibration unit; return its wall seconds."""
    start = perf_counter()
    for case in UNIT_CASES:
        ref.decomposable(case)
    return perf_counter() - start


class Clock:
    """Converts measured wall seconds to reference-clock seconds."""

    def __init__(self):
        self.recent: deque[float] = deque(maxlen=WINDOW)
        self.owed = 0.0  # wall seconds of calibration still due
        self.units: list[float] = []

    def prime(self) -> None:
        """Fill the window afresh, e.g. in a new process or after a pause."""
        for _ in range(WINDOW):
            self._tick()
        self.owed = 0.0

    def _tick(self) -> float:
        t = unit()
        self.recent.append(t)
        self.units.append(t)
        return t

    def keep_up(self, measured_wall_s: float) -> None:
        """Run calibration units for ``CAL_SHARE`` of the wall time just measured."""
        self.owed += CAL_SHARE * measured_wall_s
        while self.owed > 0:
            self.owed -= self._tick()

    def factor(self) -> float:
        """Reference-clock seconds per wall second, at the current speed."""
        if not self.recent:
            self.prime()
        return NOMINAL_UNIT_S / statistics.median(self.recent)


def scaled(measure) -> float:
    """Reference-clock seconds of ``measure()``, which returns wall seconds.

    The speed is read from fresh units just before and just after.
    """
    clock = Clock()
    clock.prime()
    wall = measure()
    clock.prime()
    return wall * NOMINAL_UNIT_S / statistics.median(clock.units)
