"""README's examples run as written."""

import io
import re
import shlex
import sys
from pathlib import Path

from hyperext.cli import main

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
