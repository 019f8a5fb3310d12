"""The four workloads: set-up, one timed pass, and the output checks.

A pass is one request a user waits for, repeated until the run's time is
up: one cell (``search-clique``, ``search-nu``), one sweep command
(``sweep-wide``) or the whole seeded call stream (``toolkit``).  Checks
run after the clock stops and test what must hold whatever the timing
and the search order: verdicts, and witnesses revalidated with public
functions.  Leaf counts and witness identity are not checked, because a
search that visits fewer families may legitimately change both.

Times are at the reference speed: ``run_pass`` scales each timed
interval with the run's ``calibrate.Meter``, so the host's speed phases
cancel.  ``raw_wall_s`` keeps the clock time.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import toolkit
import tracing
from hyperext import count_cliques, has_matching_at_most, is_stable, parse, verifier
from tracing import clock

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

# The sweep's grid: r=3, k=1, s=3..5, n=max(s, 6)..14 -- 27 cells.
SWEEP_CONFIG = "r=3\nk=1\ns=3..5\nn=max(s, r*k+r)..14\n"
SWEEP_JOBS = 2


@dataclass
class Pass:
    wall_s: float
    first_line_s: float
    latencies_s: list[float]
    attempted: int
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    layers: dict | None = None
    raw_wall_s: float = 0.0


def check_verdict(got: dict, expected: dict, witness) -> list[str]:
    """Compare a cell's verdict to the recorded one and revalidate its witness.

    ``witness`` is a Hypergraph, its .hg text (from a JSONL line) or None.
    """
    n, k, r, s = expected["cell"]
    problems = [
        f"cell {expected['cell']}: {key} {got[key]!r} != {expected[key]!r}"
        for key in ("regime", "claimed_bound", "observed_max", "status")
        if got[key] != expected[key]
    ]
    w = parse(witness) if isinstance(witness, str) else witness
    if w is None or (w.n, w.r) != (n, r):
        return problems + [f"cell {expected['cell']}: no witness on [n] of rank r"]
    if not is_stable(w):
        problems.append(f"cell {expected['cell']}: witness is not stable")
    if not has_matching_at_most(w, k):
        problems.append(f"cell {expected['cell']}: witness has ν > k")
    if count_cliques(w, s).total != expected["observed_max"]:
        problems.append(f"cell {expected['cell']}: witness K_s != observed_max")
    return problems


class SearchCell:
    """One exhaustive cell, ``verify_extremal_cell`` called in-process."""

    jobs = 1
    warm_up_cells = {"search-clique": (7, 2, 3, 5), "search-nu": (10, 5, 2, 3)}

    def __init__(self, name: str, root: Path, seed: int):
        self.name = name
        self.expected = EXPECTED[name]
        self.cell = tuple(self.expected["cell"])

    def warm_up(self) -> None:
        verifier.verify_extremal_cell(*self.warm_up_cells[self.name])

    def run_pass(self, tracer: tracing.Tracer | None, meter: calibrate.Meter) -> Pass:
        with tracing.installed(tracer) if tracer else nullcontext():
            mark = len(tracer.spans) if tracer else 0
            t0 = clock()
            report = verifier.verify_extremal_cell(*self.cell)
            t1 = clock()
        wall = meter.scale(t0, t1)
        got = {
            "regime": report.regime,
            "claimed_bound": report.claimed_bound,
            "observed_max": report.observed_max,
            "status": report.status,
        }
        result = Pass(wall, wall, [wall], 1, check_verdict(got, self.expected, report.witness))
        result.failed = int(bool(result.problems))
        result.raw_wall_s = t1 - t0
        if tracer is not None:
            result.layers = tracing.pass_layers(tracer.spans[mark:], t1 - t0, self.jobs, mark)
        return result


class SweepWide:
    """``hyperext verify sweep --jobs 2`` over 27 cells, as a child process."""

    jobs = SWEEP_JOBS

    def __init__(self, name: str, root: Path, seed: int):
        self.root = root
        self.src = root / "src"
        self.out = root / "perfbench" / "out"
        self.config = self.out / "sweep.cfg"
        self.expected = EXPECTED[name]

    def warm_up(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        self.config.write_text(SWEEP_CONFIG, encoding="utf-8")
        verifier.verify_extremal_cell(6, 1, 3, 3)

    def run_pass(self, tracer: tracing.Tracer | None, meter: calibrate.Meter) -> Pass:
        args = ["verify", "sweep", "--config", str(self.config), "--jobs", str(self.jobs)]
        if tracer is None:
            cmd = [sys.executable, "-m", "hyperext.cli", *args]
        else:
            span_dir = self.out / "sweep-spans"
            shutil.rmtree(span_dir, ignore_errors=True)
            span_dir.mkdir(parents=True)
            cmd = [sys.executable, str(HERE / "tracing.py"), str(span_dir), str(self.src), "--", *args]
        env = {**os.environ, "PYTHONPATH": str(self.src)}
        lines: list[str] = []
        first = None
        with open(self.out / "sweep-stderr.txt", "w", encoding="utf-8") as err:
            t0 = clock()
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=err, text=True, cwd=self.root, env=env
            )
            try:
                for line in proc.stdout:
                    if first is None:
                        first = clock()
                    lines.append(line)
                code = proc.wait()
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
            t1 = clock()
        wall = meter.scale(t0, t1)
        first = wall if first is None else meter.scale(t0, first)
        result = Pass(wall, first, [wall], len(self.expected), raw_wall_s=t1 - t0)
        millis = self._check(lines, code, result)
        if tracer is not None:
            raw = t1 - t0
            layers = tracing.pass_layers(tracing.load_span_files(span_dir), raw, self.jobs)
            if millis:
                tracing.cell_layers(layers, [m / 1000 for m in millis], raw, self.jobs)
            result.layers = layers
        return result

    def _check(self, lines: list[str], code: int, result: Pass) -> list[int]:
        """One failure per expected line that is missing or wrong."""
        if code != 0:
            result.problems.append(f"sweep exited with code {code}")
            result.failed = len(self.expected)
            return []
        millis = []
        for i, exp in enumerate(self.expected):
            if i >= len(lines):
                problems = [f"line {i + 1} missing"]
            else:
                try:
                    obj = json.loads(lines[i])
                    cell = obj["cell"]
                    got = {
                        "cell": [cell["n"], cell["k"], cell["r"], cell["s"]],
                        "regime": obj["regime"],
                        "claimed_bound": int(obj["claimed_bound"]),
                        "observed_max": int(obj["observed_max"]),
                        "status": obj["status"],
                    }
                    millis.append(obj["millis"])
                    problems = [] if got["cell"] == exp["cell"] else [
                        f"line {i + 1} is cell {got['cell']}, expected {exp['cell']}"
                    ]
                    problems += check_verdict(got, exp, obj["witness"])
                except (ValueError, KeyError, TypeError) as exc:
                    problems = [f"line {i + 1} unreadable: {exc!r}"]
            result.problems += problems
            result.failed += bool(problems)
        if len(lines) > len(self.expected):
            result.problems.append(f"{len(lines) - len(self.expected)} extra lines")
            result.failed += 1
        return millis


class Toolkit:
    """A seeded stream of single library calls on generated hosts."""

    jobs = 1

    def __init__(self, name: str, root: Path, seed: int):
        self.ops = toolkit.generate(seed)

    def warm_up(self) -> None:
        seen = set()
        for kind, args in self.ops:
            if kind not in seen:
                seen.add(kind)
                toolkit.run_op(kind, args, _direct)

    def run_pass(self, tracer: tracing.Tracer | None, meter: calibrate.Meter) -> Pass:
        intervals = []
        problems = []
        group_results: dict = {}
        call = _direct if tracer is None else tracer.call
        with tracing.installed(tracer) if tracer else nullcontext():
            mark = len(tracer.spans) if tracer else 0
            for i, (kind, args) in enumerate(self.ops):
                if tracer is not None:
                    tracer.op = i
                t0 = clock()
                out = toolkit.run_op(kind, args, call)
                intervals.append((t0, clock()))
                if kind == "count":
                    group_results = {}
                problem = toolkit.check_op(kind, args, out, group_results)
                if problem:
                    problems.append(f"op {i} ({kind}): {problem}")
        # The clock stops while outputs are checked; each call's first (and
        # only) result line is its return value.
        latencies = [meter.scale(t0, t1) for t0, t1 in intervals]
        raw = sum(t1 - t0 for t0, t1 in intervals)
        wall = sum(latencies)
        first = statistics.median(latencies)
        result = Pass(wall, first, latencies, len(self.ops), problems, len(problems), raw_wall_s=raw)
        if tracer is not None:
            result.layers = tracing.pass_layers(tracer.spans[mark:], raw, self.jobs, mark)
        return result


def _direct(_span, fn, *args, **kwargs):
    return fn(*args, **kwargs)


WORKLOADS = {
    "search-clique": SearchCell,
    "search-nu": SearchCell,
    "sweep-wide": SweepWide,
    "toolkit": Toolkit,
}
