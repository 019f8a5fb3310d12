"""hyperext benchmark: time to verdict on four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search-clique --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the last line of stdout is one JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer split of
traced passes, interleaved with untraced ones to price the tracing.
Times are at the reference speed of ``calibrate``; the run record keeps
the clock times too.  A run pools the passes of a few worker processes
that run one after another (``run_one``).
``--workload all`` runs every workload in its own process and prints a
table.  perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import calibrate
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
NAMES = ["search-clique", "search-nu", "sweep-wide", "toolkit"]
SETUP_REPEATS = 9
# Sequential worker processes per untraced run.  A sweep pass (11 s)
# fills half a 20 s run, so the sweep has two.
WORKERS = {"search-clique": 5, "search-nu": 5, "sweep-wide": 2, "toolkit": 4}
END_TO_END = [
    ("wall_s", "s"),
    ("first_line_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--worker", type=int, metavar="PROBES", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def environment() -> dict:
    """Facts that explain an outlier: interpreter, commit, CPU and load."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except OSError:
        sha = "unknown (git not found)"
    return {
        "python": platform.python_version(),
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg_start": os.getloadavg(),
    }


def quantile(xs: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    xs = sorted(xs)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Spawn to exit of a fresh interpreter that only sets the workload up.

    Returns the start and end on the clock; the worker scales them.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return t0, time.perf_counter()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def measure(wl, seconds: float, trace: bool, probe, probes: int, meter):
    """Passes while the next would end within ``seconds``; traced runs alternate.

    One set-up probe runs before each of the first passes (the rest after
    the last), so that set-up is sampled across the run as the passes are.
    """
    tracer = tracing.Tracer() if trace else None
    plain, traced, setup = [], [], []
    start = time.perf_counter()
    i = 0
    last = 0.0
    while not plain or (trace and not traced) or time.perf_counter() - start + last <= seconds:
        if len(setup) < probes:
            setup.append(probe())
        use_tracer = tracer if trace and i % 2 == 1 else None
        if use_tracer is not None:
            use_tracer.op = f"pass{i}"
        t0 = time.perf_counter()
        (traced if use_tracer else plain).append(wl.run_pass(use_tracer, meter))
        last = time.perf_counter() - t0
        i += 1
    setup += [probe() for _ in range(probes - len(setup))]
    return plain, traced, tracer, setup


def end_to_end(passes, setup_samples) -> dict:
    latencies = [x for p in passes for x in p["latencies_s"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "first_line_s": statistics.median(p["first_line_s"] for p in passes),
        "op_p50_ms": quantile(latencies, 0.50) * 1000,
        "op_p99_ms": quantile(latencies, 0.99) * 1000,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setup_samples),
    }


def per_layer(plain, traced) -> dict:
    layers = tracing.median_layers([p["layers"] for p in traced])
    untraced = statistics.median(p["wall_s"] for p in plain)
    layers["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced) - untraced
    ) / untraced
    return layers


def write_spans(tracer, workload: str) -> Path:
    path = OUT / f"spans-{workload}.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def run_worker(args) -> int:
    """One worker process: warm up, measure, print its passes as JSON.

    With ``--setup-only`` it stops after the warm-up: that is a set-up probe.
    """
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        cls(args.workload, ROOT, args.seed).warm_up()
        return 0
    wl = cls(args.workload, ROOT, args.seed)
    with calibrate.Meter() as meter:
        wl.warm_up()
        plain, traced, tracer, probes = measure(
            wl, args.seconds, bool(args.trace), lambda: setup_probe(args.workload, args.seed),
            args.worker, meter,
        )
    if tracer is not None:
        write_spans(tracer, args.workload)
    print(json.dumps({
        "plain": [asdict(p) for p in plain],
        "traced": [asdict(p) for p in traced],
        "setup_s": [meter.scale(t0, t1) for t0, t1 in probes],
        "setup_clock_s": [t1 - t0 for t0, t1 in probes],
        "ticks": len(meter.samples),
        "kernel_median_s": statistics.median(meter.samples),
    }))
    return 0


def run_one(args) -> int:
    """Sequential worker processes share the run's time, and their passes are pooled.

    A process's speed depends on its memory layout and string hash seed,
    so one process's passes all lean the same way; several processes,
    one after another, average that out.  A traced run uses one worker,
    so that its spans come from one process.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    env = environment()
    workers = 1 if args.trace else WORKERS[args.workload]
    parts = []
    for w in range(workers):
        probes = SETUP_REPEATS // workers + (w < SETUP_REPEATS % workers)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds / workers),
               "--trace", str(args.trace), "--worker", str(probes)]
        out = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
        parts.append(json.loads(out.splitlines()[-1]))
    plain = [p for part in parts for p in part["plain"]]
    traced = [p for part in parts for p in part["traced"]]
    setup_samples = [x for part in parts for x in part["setup_s"]]
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    if args.trace:
        units = dict(tracing.LAYER_METRICS)
        values = per_layer(plain, traced)
        spans_file = OUT / f"spans-{args.workload}.jsonl.gz"
    else:
        units = dict(END_TO_END)
        values = end_to_end(plain, setup_samples)
        spans_file = None
    env["loadavg_end"] = os.getloadavg()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_note": (
            "seeds the toolkit call stream"
            if args.workload == "toolkit"
            else "no effect: exhaustive cells have no random input"
        ),
        "trace": args.trace,
        "workers": workers,
        "passes": {"plain": len(plain), "traced": len(traced)},
        "pass_wall_s": [p["wall_s"] for p in plain],
        "pass_clock_s": [p["raw_wall_s"] for p in plain],
        "requests_timed": sum(len(p["latencies_s"]) for p in plain),
        "error_rate": f"{failed}/{attempted}",
        "problems": problems[:20],
        "setup_samples_s": setup_samples,
        "setup_clock_s": [x for part in parts for x in part["setup_clock_s"]],
        "meter": {
            "ticks": sum(part["ticks"] for part in parts),
            "kernel_median_s": [part["kernel_median_s"] for part in parts],
            "ref_s": calibrate.REF_S,
        },
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
        "env": env,
    }
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**record, "metrics": values}, fh, indent=1)
    for msg in problems[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps(record))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    rows = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
        rows[name] = json.loads(out.splitlines()[-1])
    first = rows[NAMES[0]]["metrics"]
    print(f"{'metric':32} {'unit':6} " + " ".join(f"{n:>14}" for n in NAMES))
    for metric, spec in first.items():
        cells = " ".join(f"{rows[n]['metrics'][metric]['value']:14.6g}" for n in NAMES)
        print(f"{metric:32} {spec['unit']:6} {cells}")
    errors = " ".join(f"{rows[n]['failed']:>6}/{rows[n]['attempted']:<7}" for n in NAMES)
    print(f"{'error_rate (failed/attempted)':32} {'count':6} {errors}")
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hyperext" / "__init__.py").is_file():
        print(f"error: no hyperext sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only or args.worker is not None:
        return run_worker(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
