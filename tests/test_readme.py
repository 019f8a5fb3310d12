"""README's examples run as written."""

import io
import re
import shlex
import sys
from pathlib import Path

from hyperext.cli import main
from hyperext.core import Budget
from hyperext.verifier import stable_with_matching_at_most

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after the line ``heading``."""
    after = README.split("\n" + heading + "\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", after, re.S).group(1)


def _hyperext(command: str) -> list[str]:
    argv = shlex.split(command)
    assert argv[0] == "hyperext"
    return argv[1:]


def test_library_example_runs():
    exec(compile(_block("## Library example", "python"), "README.md", "exec"), {})


def test_construct_count_pipe_and_closed_form_print_64(capsys, monkeypatch):
    lines = _block("## CLI", "sh").splitlines()
    pipe = next(l for l in lines if l.startswith("hyperext construct"))
    closed = next(l for l in lines if l.startswith("hyperext closed-form"))
    construct, count = pipe.split("|")
    assert main(_hyperext(construct)) == 0
    family = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.StringIO(family))
    assert main(_hyperext(count)) == 0
    assert capsys.readouterr().out == "64\n"
    assert main(_hyperext(closed)) == 0
    assert capsys.readouterr().out == "64\n"


def _budget_needed(capsys, n, k, r, s, need):
    """``hyperext verify extremal`` on the cell finishes with ``need``
    nodes and runs out with one fewer."""
    cell = ["verify", "extremal", "--n", n, "--k", k, "--r", r, "--s", s]
    assert main([*cell, "--budget", str(need)]) == 0
    capsys.readouterr()
    assert main([*cell, "--budget", str(need - 1)]) == 3
    assert f"after {need - 1} nodes" in capsys.readouterr().err


def test_budget_paragraph_figures_hold_through_the_cli(capsys):
    text = " ".join(README.split())
    m = re.search(
        r"\((\d+), (\d+), (\d+), (\d+)\) needs ([\d,]+) nodes: ([\d,]+) "
        r"families and (\d+) ν-search node",
        text,
    )
    n, k, r, s = m.group(1, 2, 3, 4)
    need, families, search = (int(g.replace(",", "")) for g in m.group(5, 6, 7))
    assert need == families + search
    _budget_needed(capsys, n, k, r, s, need)
    budget = Budget(10**9)
    list(stable_with_matching_at_most(int(n), int(r), int(k), budget=budget))
    assert budget.limit - budget.left == families

    m = re.search(
        r"\(k, r, s\) = \((\d+), (\d+), (\d+)\) a cell needs (\d+) nodes at "
        r"n = (\d+) and (\d+) at n = (\d+)",
        text,
    )
    k, r, s = m.group(1, 2, 3)
    for need, n in [m.group(4, 5), m.group(6, 7)]:
        _budget_needed(capsys, n, k, r, s, int(need))
