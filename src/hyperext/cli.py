"""Command-line surface: construction, counting, shifting, matching,
rainbow search, and verification sweeps with machine-readable output.

Exit codes: 0 success/confirmed, 1 counterexample or no rainbow
matching, 2 usage/input error, 3 budget exceeded, 4 a broken internal
invariant of the search (status ``invariant-broken``).
"""

from __future__ import annotations

import argparse
import ast
import json
import operator
import sys

from . import core, shifting
from .cliques import count_cliques
from .core import Budget, BudgetExceededError, ColoredFamily, HypergraphFormatError
from .extremal import (
    binomial_inequality_suite,
    build_extremal_family,
    closed_form_clique_count,
    rainbow_hypothesis_check,
)
from .matchings import find_rainbow_matching, matching_number
from .verifier import (
    COUNTEREXAMPLE,
    INVARIANT_BROKEN,
    SCHEMA,
    run_extremal_sweep,
    verify_extremal_cell,
)

_SWEEP_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.FloorDiv: operator.floordiv,
}
_SWEEP_CALLS = {"min": min, "max": max}


def _read_hypergraph(path: str) -> core.Hypergraph:
    if path == "-":
        return core.parse(sys.stdin.read())
    return core.load(path)


def _write_hypergraph(h: core.Hypergraph, path: str | None) -> None:
    text = core.serialize(h)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_construct(args) -> int:
    h = build_extremal_family(args.n, args.k, args.r, args.a)
    _write_hypergraph(h, args.output)
    return 0


def _cmd_count(args) -> int:
    h = _read_hypergraph(args.file)
    cc = count_cliques(h, args.s, per_vertex=args.per_vertex)
    if args.format == "json":
        obj = {"schema": SCHEMA, "s": cc.s, "total": str(cc.total)}
        if cc.per_vertex is not None:
            obj["per_vertex"] = {str(v): str(c) for v, c in cc.per_vertex.items()}
        print(json.dumps(obj, separators=(",", ":")))
    else:
        print(cc.total)
        if cc.per_vertex is not None:
            for v in sorted(cc.per_vertex):
                print(f"{v} {cc.per_vertex[v]}")
    return 0


def _cmd_nu(args) -> int:
    h = _read_hypergraph(args.file)
    nu, witness = matching_number(h, Budget(args.budget))
    edges = [core.labels_from_mask(e) for e in witness.edges]
    if args.format == "json":
        obj = {
            "schema": SCHEMA,
            "nu": nu,
            "witness": [list(e) for e in edges],
        }
        print(json.dumps(obj, separators=(",", ":")))
    else:
        print(nu)
        for e in edges:
            print(" ".join(str(v) for v in e))
    return 0


def _cmd_shift(args) -> int:
    h = _read_hypergraph(args.file)
    _write_hypergraph(shifting.shift(h, args.i, args.j), args.output)
    return 0


def _cmd_stabilize(args) -> int:
    h = _read_hypergraph(args.file)
    trace = shifting.stabilize(h)
    _write_hypergraph(trace.result, args.output)
    moved = sum(c for _, _, c in trace.applications)
    print(
        f"# stabilize: {len(trace.applications)} applications, "
        f"{moved} edge moves, {trace.rounds} sweeps",
        file=sys.stderr,
    )
    return 0


def _cmd_closed_form(args) -> int:
    print(closed_form_clique_count(args.n, args.k, args.r, args.a, args.s))
    return 0


def _cmd_verify_extremal(args) -> int:
    report = verify_extremal_cell(
        args.n, args.k, args.r, args.s, budget=Budget(args.budget)
    )
    if args.format == "json":
        print(report.to_json_line())
    else:
        print(
            f"cell n={args.n} k={args.k} r={args.r} s={args.s} "
            f"regime {report.regime}: claimed {report.claimed_bound}, "
            f"observed {report.observed_max}, {report.status}"
        )
    return _exit_code({report.status})


def _exit_code(statuses: set[str]) -> int:
    if INVARIANT_BROKEN in statuses:
        return 4
    return 1 if COUNTEREXAMPLE in statuses else 0


def _sweep_int(expr: str, names: dict[str, int]) -> int:
    """Evaluate an integer literal, an earlier name, ``+ - * //``, unary minus,
    parentheses and ``min``/``max`` of two or more positional arguments;
    anything else, or nesting too deep for the parser or ``ev``, is a
    ValueError."""

    def ev(node: ast.AST) -> int:
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.BinOp) and type(node.op) in _SWEEP_OPS:
            left, right = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.FloorDiv) and right == 0:
                raise ValueError(f"division by zero in sweep expression {expr!r}")
            return _SWEEP_OPS[type(node.op)](left, right)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _SWEEP_CALLS
            and len(node.args) >= 2
            and not node.keywords
        ):
            return _SWEEP_CALLS[node.func.id](*(ev(a) for a in node.args))
        raise ValueError(f"unsupported sweep expression {expr!r}")

    try:
        return ev(ast.parse(expr, mode="eval").body)
    except SyntaxError:
        raise ValueError(f"malformed sweep expression {expr!r}") from None
    except RecursionError:
        raise ValueError("sweep expression nested too deeply") from None


def _parse_sweep_config(text: str) -> list[tuple[int, int, int, int]]:
    """Grammar: comma/newline-separated ``name=lo..hi`` (or ``name=expr``),
    where lo/hi are integer expressions over earlier names plus min/max.
    Commas inside parentheses do not separate assignments."""

    def split_top_level(chunk: str) -> list[str]:
        out, depth, cur = [], 0, []
        for ch in chunk:
            if ch == "," and depth == 0:
                out.append("".join(cur))
                cur = []
            else:
                depth += ch == "("
                depth -= ch == ")"
                cur.append(ch)
        out.append("".join(cur))
        return out

    parts = [
        p.strip()
        for chunk in text.splitlines()
        for p in split_top_level(chunk)
    ]
    specs: list[tuple[str, str, str]] = []
    for part in parts:
        if not part or part.startswith("#"):
            continue
        if "=" not in part:
            raise ValueError(f"bad sweep assignment {part!r}")
        name, _, rhs = part.partition("=")
        name = name.strip()
        lo, sep, hi = rhs.partition("..")
        specs.append((name, lo.strip(), hi.strip() if sep else lo.strip()))

    bindings: list[dict[str, int]] = [{}]
    for name, lo_expr, hi_expr in specs:
        bindings = [
            {**b, name: val}
            for b in bindings
            for val in range(_sweep_int(lo_expr, b), _sweep_int(hi_expr, b) + 1)
        ]
    cells = []
    for b in bindings:
        missing = {"n", "k", "r", "s"} - b.keys()
        if missing:
            raise ValueError(f"sweep config must bind n, k, r, s; missing {missing}")
        if b["r"] <= b["s"]:
            cells.append((b["n"], b["k"], b["r"], b["s"]))
    return cells


def _cmd_verify_sweep(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cells = _parse_sweep_config(fh.read())
    statuses = set()
    for report in run_extremal_sweep(cells, jobs=args.jobs):
        print(report.to_json_line(), flush=True)
        statuses.add(report.status)
    return _exit_code(statuses)


def _cmd_rainbow(args) -> int:
    members = tuple(_read_hypergraph(f) for f in args.files)
    r = members[0].r
    for path, h in zip(args.files, members):
        if h.r != r:
            raise ValueError(
                f"{path} has r={h.r}, expected r={r} as in {args.files[0]}"
            )
    n = max(h.n for h in members)
    members = tuple(
        core.Hypergraph._make(n, r, h.edges) if h.n != n else h for h in members
    )
    fam = ColoredFamily(n, r, members)
    if args.check_hypothesis:
        t = args.t if args.t is not None else r
        verdicts = rainbow_hypothesis_check(fam, t)
        for i, v in enumerate(verdicts, start=1):
            print(f"# color {i}: hypothesis {'holds' if v else 'fails'}")
    rm = find_rainbow_matching(fam)
    if rm is None:
        print("none")
        return 1
    for color, e in rm.picks:
        labels = " ".join(str(v) for v in core.labels_from_mask(e))
        print(f"{color}: {labels}")
    return 0


def _cmd_ineq(args) -> int:
    from fractions import Fraction

    try:
        x = Fraction(args.x) if args.x is not None else None
    except ZeroDivisionError:
        raise ValueError(f"--x {args.x!r} has a zero denominator") from None
    verdicts = binomial_inequality_suite(args.a, args.b, args.c, args.p, x)
    for v in verdicts:
        state = "holds" if v.holds else ("precondition" if v.holds is None else "FAILS")
        note = f"  ({v.note})" if v.note else ""
        print(f"{v.name}: {state}{note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hyperext",
        description="Exact toolkit for cliques and matchings in uniform hypergraphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write the extremal family in .hg format")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("count", help="print the number of s-cliques")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--per-vertex", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("file")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("nu", help="print the matching number and a witness")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("file")
    p.set_defaults(func=_cmd_nu)

    p = sub.add_parser("shift", help="apply the shifting operator S_ij once")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("file")
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("stabilize", help="shift to a stable hypergraph")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("file")
    p.set_defaults(func=_cmd_stabilize)

    p = sub.add_parser("closed-form", help="closed-form s-clique count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_cmd_closed_form)

    p = sub.add_parser("verify", help="exhaustive desk-scale verification")
    vsub = p.add_subparsers(dest="verify_command", required=True)

    pv = vsub.add_parser("extremal", help="verify one parameter cell")
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--k", type=int, required=True)
    pv.add_argument("--r", type=int, required=True)
    pv.add_argument("--s", type=int, required=True)
    pv.add_argument("--budget", type=int, default=None)
    pv.add_argument("--format", choices=("text", "json"), default="text")
    pv.set_defaults(func=_cmd_verify_extremal)

    pv = vsub.add_parser("sweep", help="run a parameter grid, JSONL out")
    pv.add_argument("--config", required=True)
    pv.add_argument("--jobs", type=int, default=1)
    pv.set_defaults(func=_cmd_verify_sweep)

    p = sub.add_parser("rainbow", help="search for a rainbow matching")
    p.add_argument("files", nargs="+")
    p.add_argument("--check-hypothesis", action="store_true")
    p.add_argument("--t", type=int, default=None)
    p.set_defaults(func=_cmd_rainbow)

    p = sub.add_parser("ineq", help="binomial inequality verdicts")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--x", default=None, help="rational, e.g. 1/3")
    p.set_defaults(func=_cmd_ineq)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (HypergraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
