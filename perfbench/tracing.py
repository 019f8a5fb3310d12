"""Spans around calls into hyperext, recorded from the benchmark side.

A span is ``[name, start, end, parent, op, info]``: ``parent`` is the
index of the enclosing span in the same list (or -1), ``op`` the id of
the cell, sweep or toolkit call it belongs to, and ``info`` a small
payload (edges in the host of a ν call and whether it passed; whether a
walk step yielded a leaf).  Spans stay in memory until the run ends.

No library source is changed.  ``hyperext.verifier`` looks its
collaborators up as module globals at call time, so replacing those
names with recording wrappers (``installed``) traces the search from
outside.  The same module, run as a script, is the traced child of the
``sweep-wide`` workload: it installs the wrappers, then runs the CLI;
pool workers are forked from it and append their spans to files, one
line per cell.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

clock = time.perf_counter

# verifier global -> span name.  These are the names the verifier looks up
# at call time; everything else is traced where the benchmark calls it.
VERIFIER_HOOKS = {
    "enumerate_stable": "shifting.walk",
    "has_matching_at_most": "matchings.nu",
    "count_cliques": "cliques.count",
    "enumerate_cliques": "cliques.enum",
    "theorem_bound": "extremal.bound",
    "serialize": "core.serialize",
    "verify_extremal_cell": "verifier.cell",
}


class Tracer:
    """An in-memory span list with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: object = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, info=None) -> None:
        span = self.spans[idx]
        span[2] = clock()
        span[5] = info
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)


def _wrap_call(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return traced


def _wrap_nu(tracer: Tracer, fn):
    def traced(h, k, *args, **kwargs):
        idx = tracer.open("matchings.nu")
        ok = None
        try:
            ok = fn(h, k, *args, **kwargs)
            return ok
        finally:
            tracer.close(idx, (len(h.edges), ok))

    return traced


def _wrap_walk(tracer: Tracer, fn):
    """Each ``next()`` on the stable-family generator is one walk span."""

    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            idx = tracer.open("shifting.walk")
            yielded = False
            try:
                h = next(it)
                yielded = True
            except StopIteration:
                return
            finally:
                tracer.close(idx, yielded)
            yield h

    return traced


@contextmanager
def installed(tracer: Tracer, on_cell_end=None):
    """Replace the verifier's collaborators with span recorders."""
    from hyperext import verifier

    saved = {attr: getattr(verifier, attr) for attr in VERIFIER_HOOKS}
    for attr, name in VERIFIER_HOOKS.items():
        fn = saved[attr]
        if attr == "enumerate_stable":
            wrapped = _wrap_walk(tracer, fn)
        elif attr == "has_matching_at_most":
            wrapped = _wrap_nu(tracer, fn)
        else:
            wrapped = _wrap_call(tracer, name, fn)
        setattr(verifier, attr, wrapped)
    if on_cell_end is not None:
        cell = verifier.verify_extremal_cell

        def cell_then_flush(n, k, r, s, **kwargs):
            tracer.op = f"{n},{k},{r},{s}"
            try:
                return cell(n, k, r, s, **kwargs)
            finally:
                on_cell_end()

        verifier.verify_extremal_cell = cell_then_flush
    try:
        yield tracer
    finally:
        for attr, fn in saved.items():
            setattr(verifier, attr, fn)


def load_span_files(directory: Path) -> list[list]:
    """Spans written by the traced sweep child, parents re-based."""
    spans: list[list] = []
    for path in sorted(directory.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                chunk = json.loads(line)
                base = len(spans)
                for span in chunk:
                    if span[3] >= 0:
                        span[3] += base
                    spans.append(span)
    return spans


# Per-layer metrics: (name, unit).  Times are seconds per pass; counts are
# per pass and repeat exactly.
LAYER_METRICS = [
    ("shifting.walk_self_s", "s"),
    ("shifting.leaves", "count"),
    ("shifting.pred_calls", "count"),
    ("shifting.pred_pass_ratio", "ratio"),
    ("shifting.stabilize_s", "s"),
    ("matchings.nu_s", "s"),
    ("matchings.nu_calls", "count"),
    ("matchings.nu_us_per_call", "us"),
    ("matchings.nu_edges_per_call", "edges"),
    ("matchings.matching_number_s", "s"),
    ("matchings.rainbow_s", "s"),
    ("cliques.count_s", "s"),
    ("cliques.count_calls", "count"),
    ("cliques.count_us_per_call", "us"),
    ("cliques.enum_s", "s"),
    ("cliques.census_s", "s"),
    ("verifier.self_s", "s"),
    ("verifier.cell_busy_s", "s"),
    ("verifier.critical_cell_s", "s"),
    ("verifier.worker_idle_frac", "ratio"),
    ("extremal.bound_s", "s"),
    ("extremal.ineq_s", "s"),
    ("core.parse_s", "s"),
    ("core.serialize_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

# span name -> metric that sums its duration
_TOTALS = {
    "shifting.stabilize": "shifting.stabilize_s",
    "matchings.nu": "matchings.nu_s",
    "matchings.matching_number": "matchings.matching_number_s",
    "matchings.rainbow": "matchings.rainbow_s",
    "cliques.count": "cliques.count_s",
    "cliques.enum": "cliques.enum_s",
    "cliques.census": "cliques.census_s",
    "extremal.bound": "extremal.bound_s",
    "extremal.ineq": "extremal.ineq_s",
    "core.parse": "core.parse_s",
    "core.serialize": "core.serialize_s",
}


def pass_layers(
    spans: list[list], wall_s: float, jobs: int, base: int = 0
) -> dict[str, float]:
    """Per-layer figures of one traced pass: ``spans`` starts at index ``base``.

    A span's self time is its duration minus the time its direct children
    cover; walk self time is therefore the walk without its ν predicate.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= base:
            child[span[3] - base] += span[2] - span[1]
    out = {name: 0 if unit == "count" else 0.0 for name, unit in LAYER_METRICS}
    nu_edges = 0
    pred_pass = 0
    cells: list[float] = []
    for i, (name, start, end, parent, _op, info) in enumerate(spans):
        dur = end - start
        metric = _TOTALS.get(name)
        if metric is not None:
            out[metric] += dur
        if name == "shifting.walk":
            out["shifting.walk_self_s"] += dur - child[i]
            out["shifting.leaves"] += bool(info)
        elif name == "matchings.nu":
            out["matchings.nu_calls"] += 1
            nu_edges += info[0]
            if parent >= base and spans[parent - base][0] == "shifting.walk":
                out["shifting.pred_calls"] += 1
                pred_pass += bool(info[1])
        elif name == "cliques.count":
            out["cliques.count_calls"] += 1
        elif name == "verifier.cell":
            out["verifier.self_s"] += dur - child[i]
            cells.append(dur)
    if out["shifting.pred_calls"]:
        out["shifting.pred_pass_ratio"] = pred_pass / out["shifting.pred_calls"]
    if out["matchings.nu_calls"]:
        out["matchings.nu_us_per_call"] = (
            out["matchings.nu_s"] / out["matchings.nu_calls"] * 1e6
        )
        out["matchings.nu_edges_per_call"] = nu_edges / out["matchings.nu_calls"]
    if out["cliques.count_calls"]:
        out["cliques.count_us_per_call"] = (
            out["cliques.count_s"] / out["cliques.count_calls"] * 1e6
        )
    if cells:
        cell_layers(out, cells, wall_s, jobs)
    return out


def cell_layers(out: dict, cells: list[float], wall_s: float, jobs: int) -> None:
    """Busy time, critical cell and idle share of ``jobs`` workers."""
    busy = sum(cells)
    out["verifier.cell_busy_s"] = busy
    out["verifier.critical_cell_s"] = max(cells)
    out["verifier.worker_idle_frac"] = 1.0 - busy / (jobs * wall_s)


def median_layers(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes; counts stay whole numbers."""
    return {
        name: (statistics.median_low if unit == "count" else statistics.median)(
            p[name] for p in per_pass
        )
        for name, unit in LAYER_METRICS
        if name != "trace.overhead_frac"
    }


def _child_main(argv: list[str]) -> int:
    """Traced sweep child: ``tracing.py SPAN_DIR SRC -- CLI ARGS...``."""
    span_dir, src = Path(argv[0]), argv[1]
    sys.path.insert(0, src)
    from hyperext import cli

    tracer = Tracer()

    def flush() -> None:
        path = span_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(tracer.spans) + "\n")
        tracer.spans.clear()

    tracer.op = "jsonl"
    with installed(tracer, on_cell_end=flush):
        code = cli.main(argv[3:])
    flush()
    return code


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
