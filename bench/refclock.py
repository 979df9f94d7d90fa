"""Operation timing normalised by a reference kernel.

This module uses only the standard library: the set-up measurement runs it
in a fresh interpreter before numpy is imported, since importing numpy is
part of the set-up being timed.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Median reference-kernel time on the machine the reference figures in
# README.md come from.  It is a constant, not a start-up measurement, so
# that a run on a slower or busier machine still reports the same numbers.
R_NOMINAL = 0.00025
SAMPLE_PERIOD = 0.01
BRACKET_RUNS = 8


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of the package's pure-Python work:
    Fraction arithmetic and dict and tuple churn.  It does not touch
    ``instab``."""
    t0 = perf_counter()
    table: dict = {}
    acc = Fraction(0)
    for i in range(56):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        key = (i % 11, i % 13)
        table[key] = table.get(key, ()) + (i, acc.denominator)
    return perf_counter() - t0


class Clock:
    """Times operations against the reference kernel.

    The kernel runs BRACKET_RUNS times just before and just after each
    operation, and every SAMPLE_PERIOD seconds during it, from a SIGALRM
    handler.  The speed of a shared machine changes within a few hundred
    milliseconds, so the samples taken during a long operation track it
    where the bracket alone does not.  The reported time is
    ``wall * R_NOMINAL / mean(all kernel samples)``, with the time spent in
    the handler taken off the wall time.
    """

    def __init__(self):
        self._inside: list = []
        self._busy = False
        signal.signal(signal.SIGALRM, self._sample)
        self.before = self.bracket()

    def _sample(self, signum, frame):
        if not self._busy:
            self._busy = True
            self._inside.append(reference_kernel())
            self._busy = False

    @staticmethod
    def bracket() -> list:
        return [reference_kernel() for _ in range(BRACKET_RUNS)]

    def time(self, fn, *args):
        """(result or the exception it raised, raw seconds, normalised seconds)."""
        self._inside = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # counted as a failed operation by the caller
            result = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf_counter() - t0 - sum(self._inside)
        after = self.bracket()
        norm = wall * R_NOMINAL / statistics.fmean(self.before + self._inside + after)
        self.before = after
        return result, wall, norm
