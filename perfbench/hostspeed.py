"""Host speed, measured with a fixed reference loop.

On a shared host, other tenants slow a pure-Python loop by up to 2.5 times,
in stretches that last from seconds to minutes, while the speed changes by
only a few per cent from one 5 ms stretch to the next. So a wall time alone
says as much about the host as about the program. The benchmark runs
``reference_loop``, which uses only the standard library and never changes,
before, after and every ``SAMPLE_EVERY_S`` inside each timed stretch of
program code, and reports the stretch at a fixed host speed:

    scaled = wall * REFERENCE_S / mean(reference times around and inside it)

that is, the time the stretch would take on a host where the reference loop
takes ``REFERENCE_S``. A change that slows the program slows the stretch
but not the reference loop, so it shows in full.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

# the reference loop's time on a quiet 2-core VM (Python 3.11.7); it only
# sets the scale of the reported times and must stay fixed between commits
REFERENCE_S = 0.00035
# how often the reference loop runs inside a stretch
SAMPLE_EVERY_S = 0.025


def reference_loop() -> int:
    """A fixed mix of what the program spends its time on: small-int
    arithmetic, tuples, sets, dicts, Fractions and string formatting."""
    acc = 0
    seen = set()
    sums: dict[int, int] = {}
    for i in range(800):
        key = (i, i * 7 % 13, i ^ 0x5A)
        seen.add(key)
        sums[key[1]] = sums.get(key[1], 0) + key[2]
        acc += i * i % 97
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, i + 3)
    text = ",".join(f"{k}:{v}" for k, v in sorted(sums.items()))
    return acc + len(seen) + len(text) + total.numerator % 7


def reference_time() -> float:
    """Wall seconds of one ``reference_loop``, with the collector off so that
    the program's heap does not make it slower."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_loop()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Stretch:
    """Times a stretch of code at the reference speed.

    The reference loop runs before and after the stretch and, from a
    SIGALRM handler, every ``interval`` seconds inside it, so that a long
    stretch is scaled by the host speed of its own time. Time spent in the
    handler is taken out of the stretch's wall time. ``interval=0`` leaves
    the inside of the stretch alone, for passes whose spans or allocations
    are being traced.
    """

    def __init__(self, interval: float = SAMPLE_EVERY_S) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.handler_s = 0.0
        self.wall = 0.0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(reference_time())
        self.handler_s += perf_counter() - start

    def __enter__(self) -> "Stretch":
        self.samples.append(reference_time())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = perf_counter()
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = perf_counter() - self._start - self.handler_s
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_time())

    @property
    def scaled(self) -> float:
        """The stretch's time at the reference speed."""
        return self.wall * REFERENCE_S * len(self.samples) / sum(self.samples)
