"""Samples the interpreter's speed while the program runs.

The benchmark runs on shared machines whose speed changes by tens of
percent from one second to the next.  `block()` is a small fixed piece of
pure-Python work that does not touch `poissondef`: exact row reduction over
`Fraction`, products of sparse polynomials held as dicts of exponent
tuples, tokenising and rendering text and JSON, and building and walking a
heap of small objects, the kinds of work the library spends its time on.

A `Sampler` times one block every `INTERVAL_S` of wall time from a timer
signal, so the samples fall inside long commands as well as between short
ones.  A time measured over a window is scaled by the mean speed of the
samples around it, `REFERENCE_S / block time`, giving seconds at a fixed
reference speed, the speed at which one block takes `REFERENCE_S`.  The
time the samples take is subtracted from every measured time.

This code is part of the benchmark's definition: changing it changes every
calibrated metric.
"""

from __future__ import annotations

import bisect
import json
import re
import signal
from fractions import Fraction
from itertools import accumulate
from time import perf_counter

REFERENCE_S = 0.004
INTERVAL_S = 0.05
MIN_SAMPLES = 8  # a window with fewer samples borrows its nearest neighbours'


def _row_reduce(n: int) -> int:
    rows = [[Fraction((7 * i + 3 * j) % 11 - 5, (i + 2 * j) % 5 + 1)
             for j in range(n)] for i in range(n)]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _poly_power(k: int) -> int:
    base = {(i, j, 2 - i - j): Fraction(i + 1, j + 2)
            for i in range(3) for j in range(3 - i)}
    acc = {(0, 0, 0): Fraction(1)}
    for _ in range(k):
        out = {}
        for ea, ca in acc.items():
            for eb, cb in base.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        acc = {e: c for e, c in out.items() if c}
    return len(acc)


_TEXT = "".join(
    f"family U{i}: z{i % 3 + 1} = {i} * t{i % 2 + 1} * z2^{i % 4} - {i + 1}/3;\n"
    for i in range(60))
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(\S))")


def _text_round_trip() -> int:
    """Tokenise, build nested records, render them as text and JSON."""
    tokens = [m.group(0).strip() for m in _TOKEN.finditer(_TEXT)]
    records = {f"r{i}": {"tokens": tokens[i:i + 12], "n": i,
                         "ratio": str(Fraction(i + 1, i + 7))}
               for i in range(0, len(tokens), 12)}
    lines = [f"{key}: {' '.join(rec['tokens'])} ({rec['ratio']})"
             for key, rec in sorted(records.items())]
    return len("\n".join(lines)) + len(json.dumps(records, sort_keys=True))


def _heap_walk(n: int) -> int:
    """Build and walk a heap of small objects."""
    table = {(i, i % 97, i % 89): [i, str(i)] for i in range(n)}
    return sum(v[0] for k, v in table.items() if k[1] == k[2])


def block() -> int:
    return _row_reduce(6) + _poly_power(3) + _text_round_trip() + _heap_walk(1000)


def block_seconds() -> float:
    t0 = perf_counter()
    block()
    return perf_counter() - t0


def speed(block_times) -> float:
    """Mean speed of some samples, relative to the reference speed."""
    return sum(REFERENCE_S / t for t in block_times) / len(block_times)


class Sampler:
    """Context manager that times a block every `INTERVAL_S` while entered.

    Uses `SIGALRM`; the handler runs in the main thread between bytecodes.
    """

    def __init__(self):
        self.starts: list = []
        self.costs: list = []
        self._cum: list = []
        self._previous = None
        self._sampling = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        self.sample()

    def sample(self):
        if self._sampling:  # a timer signal that arrived during a sample
            return
        self._sampling = True
        t0 = perf_counter()
        block()
        self.starts.append(t0)
        self.costs.append(perf_counter() - t0)
        self._sampling = False

    def busy(self, t0: float, t1: float) -> float:
        """Time the samples took within [t0, t1)."""
        if len(self._cum) != len(self.costs) + 1:
            self._cum = [0.0, *accumulate(self.costs)]
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return self._cum[hi] - self._cum[lo]

    def scale(self, t0: float, t1: float) -> float:
        """Mean relative speed over [t0, t1), from the samples inside it or,
        when there are fewer than `MIN_SAMPLES`, the ones nearest it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        mid = (t0 + t1) / 2
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            if hi < len(self.starts) and (
                    lo == 0 or self.starts[hi] - mid < mid - self.starts[lo - 1]):
                hi += 1
            else:
                lo -= 1
        return speed(self.costs[lo:hi])
