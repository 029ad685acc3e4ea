"""The machine's current speed, measured by a fixed stdlib-only loop.

The machine the benchmark was tuned on changes speed on its own: by a factor
of up to two within seconds and between runs, with CPU time following wall
time.  A timed run therefore times this loop every ``EVERY_S`` seconds in
the workers, between operations, and in ``run.py`` before each child
process.  It reports each sample scaled to the speed at which the loop takes
``REFERENCE_S``: a sample taken while the loop took ``2 * REFERENCE_S`` on
average counts half.  The loop
uses no nc3 code, so a change to nc3 moves the scaled times as it moves the
raw ones.  The record keeps the raw figures too.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction
from typing import Callable

REFERENCE_S = 0.015
EVERY_S = 0.25
WINDOW_S = 1.0


def _loop() -> Fraction:
    """Integer and Fraction arithmetic, tuples and a dict, like nc3's own work."""
    acc = Fraction(0)
    seen = {}
    for i in range(4000):
        key = (i, i * 7 % 13, i ^ 5)
        seen[key[1]] = key
        acc += Fraction(key[0] % 7 + 1, key[2] % 11 + 1)
    return acc


def loop_s() -> float:
    """Wall time of the loop: the faster of two back-to-back runs."""
    times = []
    for _ in range(2):
        t = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t)
    return min(times)


class SpeedLog:
    """Loop times, each with the ``time.monotonic()`` at which it was taken.

    ``time.monotonic()`` is one clock for every process on the machine, so
    the parent can merge the points its workers took with its own.
    """

    def __init__(self) -> None:
        self.points: list[tuple[float, float]] = []

    def mark(self) -> None:
        self.points.append((time.monotonic(), loop_s()))

    def due(self) -> bool:
        return not self.points or time.monotonic() - self.points[-1][0] >= EVERY_S


def scale_at(points: list[tuple[float, float]]) -> Callable[[float], float]:
    """REFERENCE_S over the mean loop time within WINDOW_S of t.

    The loop flips between a fast and a slow speed within fractions of a
    second, so one reading says little about the speed over a whole sample;
    the mean over a window says how much of that time was slow.  With no
    reading in the window, the nearest one stands in.
    """
    points = sorted(map(tuple, points))
    times = [t for t, _ in points]

    def scale(t: float) -> float:
        lo = bisect.bisect_left(times, t - WINDOW_S)
        hi = bisect.bisect_right(times, t + WINDOW_S)
        if lo == hi:
            nearest = min(lo, len(points) - 1)
            if nearest > 0 and t - times[nearest - 1] < times[nearest] - t:
                nearest -= 1
            return REFERENCE_S / points[nearest][1]
        return REFERENCE_S * (hi - lo) / sum(v for _, v in points[lo:hi])

    return scale
