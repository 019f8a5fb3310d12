"""The host's speed, from a fixed reference kernel sampled while a run measures.

The shared host this benchmark was tuned on runs in speed phases of
seconds to minutes: the same call takes up to 1.6 times longer in a slow
phase, so clock times of two runs a few minutes apart differ by more
than any useful bound.  The reference kernel is pure Python in the style
of hyperext's inner loops (a bitmask extension table and a recursive
clique search) and does not import hyperext, so a change to the library
cannot move it.

``Meter`` samples the kernel on a timer signal every ``INTERVAL`` seconds
of the run, in the measuring process, between the workload's bytecodes.
``Meter.scale`` turns a timed interval into its time at the reference
speed: the interval, less the meter's own ticks inside it, times
``REF_S`` over the mean kernel time of the ticks inside it (or, for an
interval shorter than a tick, of the ticks just before and after it).
A change to the library moves the scaled time in full.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from itertools import combinations

clock = time.perf_counter

# About the median of ``sample()`` on the 2-vCPU Xeon host the bounds were
# set on; it fixes the unit only, so it never changes.
REF_S = 0.0005
REPEATS = 5
INTERVAL = 0.2
_N = 16


def _host() -> list[int]:
    rng = random.Random(20260101)
    return [sum(1 << v for v in c) for c in combinations(range(_N), 3) if rng.random() < 0.5]


_EDGES = _host()


def _extension_table(edges: list[int]) -> dict[int, int]:
    ext: dict[int, int] = {}
    for e in edges:
        m = e
        while m:
            low = m & -m
            ext[e ^ low] = ext.get(e ^ low, 0) | low
            m ^= low
    return ext


def _count(ext: dict[int, int], pool: int, chosen: list[int], s: int) -> int:
    if len(chosen) == s:
        return 1
    total = 0
    while pool:
        low = pool & -pool
        pool ^= low
        nxt = pool
        for a in chosen:
            nxt &= ext.get(a | low, 0)
        if len(chosen) + 1 + nxt.bit_count() >= s:
            total += _count(ext, nxt, chosen + [low], s)
    return total


def kernel() -> int:
    """Count the 4-cliques of a fixed 3-graph on 16 vertices."""
    return _count(_extension_table(_EDGES), (1 << _N) - 1, [], 4)


EXPECTED = kernel()


def sample() -> float:
    """Median CPU time of one kernel call over ``REPEATS`` calls.

    CPU time rather than clock time, so that a tick that waits for a CPU
    (the sweep's two workers hold both) does not read as a slow host.
    """
    times = []
    for _ in range(REPEATS):
        t0 = time.thread_time()
        got = kernel()
        times.append(time.thread_time() - t0)
        if got != EXPECTED:
            raise RuntimeError(f"reference kernel counted {got}, not {EXPECTED}")
    return statistics.median(times)


class Meter:
    """Kernel samples taken on ``SIGALRM`` while the ``with`` block runs."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.costs: list[float] = []
        self.samples: list[float] = []
        self._saved = None

    def _tick(self, _signum, _frame) -> None:
        t0 = clock()
        s = sample()
        self.starts.append(t0)
        self.costs.append(clock() - t0)
        self.samples.append(s)

    def __enter__(self) -> "Meter":
        self._tick(None, None)
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def scale(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` at the reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        own = sum(self.costs[lo:hi])
        first, last = lo, hi
        while last - first < 2 and (first > 0 or last < len(self.samples)):
            first, last = max(0, first - 1), min(len(self.samples), last + 1)
        speed = statistics.mean(self.samples[first:last])
        return (end - start - own) * REF_S / speed
