"""How far the stable-family walk gets on each (r, k) column.

A column's walk is ``verifier.stable_with_matching_at_most`` on [t],
t = r(k+1): the stream of the ⊆-maximal stable r-graphs on [t] with
ν <= k, which every cell (n, k, r, s) with n >= t reads.  For each
column given, it prints one row: the maximal families the stream
yielded, the families the walk reached (the nodes it spent of its
``core.Budget``, one per family), the seconds the stream took and
whether it finished.  With ``--seconds S`` a column still walking after
S seconds is stopped, the clock read every 1,024 nodes, and its row
reads ``partial`` with the counts it had reached.

Run from the repository root::

    python tools/walk_counts.py [--seconds S] R,K [R,K ...]

for example ``python tools/walk_counts.py --seconds 40 3,2 3,3 4,2``.
It imports ``hyperext`` from this checkout's ``src``.  Standard library
only.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hyperext.core import Budget  # noqa: E402
from hyperext.verifier import stable_with_matching_at_most  # noqa: E402


class OutOfTime(Exception):
    """The walk passed its deadline."""


class Clock(Budget):
    """A budget with no node limit that counts the nodes spent and, every
    1,024 of them, stops the walk once ``time.perf_counter`` passes
    ``deadline``."""

    __slots__ = ("deadline", "spent")

    def __init__(self, deadline: float):
        super().__init__()
        self.deadline = deadline
        self.spent = 0

    def spend(self) -> None:
        self.spent += 1
        if not self.spent & 1023 and time.perf_counter() > self.deadline:
            raise OutOfTime


def walk_counts(
    r: int, k: int, seconds: float | None
) -> tuple[int, int, float, bool]:
    """(maximal, reached, seconds, finished) for the column (r, k)."""
    start = time.perf_counter()
    clock = Clock(float("inf") if seconds is None else start + seconds)
    maximal = 0
    try:
        for _ in stable_with_matching_at_most(r * (k + 1), r, k, budget=clock):
            maximal += 1
        finished = True
    except OutOfTime:
        finished = False
    return maximal, clock.spent, time.perf_counter() - start, finished


def column(text: str) -> tuple[int, int]:
    r, k = (int(part) for part in text.split(","))
    if r < 1 or k < 0:
        raise ValueError(f"need r >= 1 and k >= 0, got r={r}, k={k}")
    return r, k


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("columns", nargs="+", type=column, metavar="R,K")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    row = "{:>2} {:>2} {:>3} {:>9} {:>10} {:>9}  {}"
    print(row.format("r", "k", "t", "maximal", "reached", "seconds", "status"))
    for r, k in args.columns:
        maximal, reached, took, finished = walk_counts(r, k, args.seconds)
        status = "done" if finished else "partial"
        print(row.format(r, k, r * (k + 1), maximal, reached, f"{took:.3f}", status))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
