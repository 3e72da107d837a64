"""Host speed, sampled from inside a benchmark session.

The shared host this benchmark was tuned on switches between two speeds.
The loop below takes either about 0.29 ms or about 0.55 ms. Each speed lasts
for phases from milliseconds to a minute long, and each vCPU switches on its
own. A session samples the loop right before each request, every TICK_S
during it from a timer signal, and once after the last request. ``run.py``
then scales each request's time by ``REFERENCE_S`` over the mean of the
samples before, during and after it. That is, it reports the time at the
host's fast speed.

A sample is the fastest of a few back-to-back runs of the loop, so neither
an interruption nor the cache state the program leaves behind moves it much.
The loop does what the program's inner loops do (rational arithmetic on
small objects and dict updates) and calls nothing in braidcert, so a change
to the program does not change the loop's work.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_S = 290e-6  # the loop's time in the host's fast phase
REPEATS = 3
TICK_S = 0.25  # a tick costs about 1 ms, so requests run about 0.4% longer


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def mul(self, o):
        return _Pair(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)


def probe_loop():
    x = _Pair(Fraction(1, 3), Fraction(2, 5))
    rows: dict = {}
    for i in range(1, 20):
        x = x.mul(_Pair(Fraction(i, i + 1), Fraction(1, i + 2)))
        rows.setdefault((i % 7, i % 5), {})[i] = x.a
    return sorted(rows)


def sample() -> float:
    """Seconds the loop takes now: the fastest of REPEATS back-to-back runs."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        probe_loop()
        best = min(best, time.perf_counter() - start)
    return best


class Ticker:
    """Collects a ``sample()`` every TICK_S from a timer signal while active."""

    def __init__(self) -> None:
        self.samples: list = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(sample())

    def __enter__(self) -> "Ticker":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
