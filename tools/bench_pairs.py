"""Compare two revisions on the benchmark in pairs of runs.

Each run gets a fresh ``git archive`` copy of its revision, so no copy
carries bytecode caches or ``perfbench/out`` from an earlier run, and
runs ``python perfbench/run.py --workload W --seed S --seconds T
--trace 0`` there, T being the ``run_seconds`` of the head's
``BENCHMARK.json``.  Pair i runs both sides with seed ``--seed`` + i,
the base first in even pairs and the head first in odd ones, so a
drift of the host's speed weighs on both sides alike.

Run from inside the repository::

    python tools/bench_pairs.py [--base REV] [--head REV] [--pairs N]
        [--seed S] [WORKLOAD ...]

The defaults are ``HEAD^`` against ``HEAD``, 10 pairs of runs and every
workload of the head's ``BENCHMARK.json``.  For each workload and
end-to-end metric it prints each side's median and quartiles, the ratio
of the medians (head over base), the pairs the head wins and whether
the head's median beats the base's by more than the base's spread
between quartiles.  A run whose result is not correct, or that fails
an operation, is reported on stderr and makes the exit code 1.  The
last stdout line is every run's metrics as JSON.  Standard library
only; the copies live in a temporary directory that is removed at the
end.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def archive(rev: str) -> bytes:
    """The tree of ``rev`` as a tar archive."""
    return subprocess.run(
        ["git", "archive", "--format=tar", rev],
        check=True,
        capture_output=True,
    ).stdout


def extract(tar: bytes, into: Path) -> Path:
    """A fresh copy of the tree in ``tar`` under the new directory ``into``."""
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(into)
    return into


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in the copy ``copy``."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(
        cmd, cwd=copy, check=True, stdout=subprocess.PIPE, text=True
    ).stdout
    return json.loads(out.splitlines()[-1])


def orders(pairs: int) -> list[tuple[str, str]]:
    """The side that runs first in each pair: the base in even pairs."""
    return [("base", "head") if i % 2 == 0 else ("head", "base") for i in range(pairs)]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile) of ``xs``."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(base: list[float], head: list[float], lower_is_better: bool) -> dict:
    """One metric over paired runs: both sides' quartiles, the ratio of
    the medians, the pairs the head wins, and whether the head's median
    beats the base's by more than the base's interquartile range."""
    sign = 1 if lower_is_better else -1
    b1, b2, b3 = quartiles(base)
    h1, h2, h3 = quartiles(head)
    return {
        "base": (b1, b2, b3),
        "head": (h1, h2, h3),
        "ratio": h2 / b2 if b2 else float("nan"),
        "wins": sum(sign * (h - b) < 0 for b, h in zip(base, head)),
        "clear": sign * (b2 - h2) > b3 - b1,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    ap.add_argument("--base", default="HEAD^")
    ap.add_argument("--head", default="HEAD")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    tars = {"base": archive(args.base), "head": archive(args.head)}
    with tarfile.open(fileobj=io.BytesIO(tars["head"])) as tf:
        spec = json.load(tf.extractfile("BENCHMARK.json"))
    seconds = spec["run_seconds"]
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    runs: dict = {w: {"base": [], "head": []} for w in workloads}
    bad = 0
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        for w in workloads:
            for i, order in enumerate(orders(args.pairs)):
                for side in order:
                    copy = extract(tars[side], tmp / f"{w}-{i}-{side}")
                    result = run_once(copy, w, args.seed + i, seconds)
                    shutil.rmtree(copy)
                    if not result["correct"] or result["failed"]:
                        bad += 1
                        print(
                            f"{w} pair {i} {side}: correct={result['correct']}"
                            f" failed={result['failed']}/{result['attempted']}",
                            file=sys.stderr,
                        )
                    runs[w][side].append(
                        {m: v["value"] for m, v in result["metrics"].items()}
                    )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"base {args.base}, head {args.head}: {args.pairs} pairs of {seconds:g} s")
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':14} {'base q1 / median / q3':>32} "
              f"{'head q1 / median / q3':>32} {'ratio':>6} wins clear")
        for m, low in lower.items():
            base = [r[m] for r in runs[w]["base"]]
            head = [r[m] for r in runs[w]["head"]]
            c = compare(base, head, low)
            cells = [" / ".join(f"{x:.4g}" for x in c[s]) for s in ("base", "head")]
            print(f"  {m:14} {cells[0]:>32} {cells[1]:>32} {c['ratio']:6.3f}"
                  f" {c['wins']:>2}/{args.pairs} {'yes' if c['clear'] else 'no'}")
    print(json.dumps(runs))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
