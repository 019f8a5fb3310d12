"""``tools/bench_pairs.py``: fresh copies, alternating order, paired wins."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_the_side_that_runs_first_alternates():
    assert bench_pairs.orders(3) == [
        ("base", "head"), ("head", "base"), ("base", "head"),
    ]


def test_quartiles_of_one_run_and_of_several():
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


@pytest.mark.parametrize("lower_is_better", [True, False])
def test_wins_are_counted_pair_by_pair(lower_is_better):
    base = [10.0, 11.0, 12.0, 13.0, 14.0]
    head = [9.0, 12.0, 11.0, 12.0, 13.0]
    got = bench_pairs.compare(base, head, lower_is_better)
    assert got["ratio"] == 12.0 / 12.0
    assert got["wins"] == (4 if lower_is_better else 1)
    # medians equal: no gain beyond the base's spread either way
    assert got["clear"] is False


def test_a_clear_gain_beats_the_base_spread():
    base = [10.0, 10.5, 11.0]
    assert bench_pairs.compare(base, [9.0, 9.2, 9.4], True)["clear"] is True
    assert bench_pairs.compare(base, [9.0, 9.2, 9.4], False)["clear"] is False
    assert bench_pairs.compare(base, [10.0, 10.1, 10.2], True)["clear"] is False


def test_copies_hold_the_committed_tree_only(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
    subprocess.run(git + ["init", "-q"], check=True)
    (repo / "a.py").write_text("x = 1\n")
    subprocess.run(git + ["add", "a.py"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "one"], check=True)
    (repo / "__pycache__").mkdir()
    (repo / "__pycache__" / "a.cpython.pyc").write_bytes(b"")
    (repo / "a.py").write_text("x = 2\n")
    monkeypatch.chdir(repo)
    copy = bench_pairs.extract(bench_pairs.archive("HEAD"), tmp_path / "copy")
    assert sorted(p.name for p in copy.iterdir()) == ["a.py"]
    assert (copy / "a.py").read_text() == "x = 1\n"
