"""``tools/walk_counts.py``: whole columns, and a capped one stopped."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "walk_counts.py"
spec = importlib.util.spec_from_file_location("walk_counts", TOOL)
walk_counts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(walk_counts)


def _rows(capsys, argv):
    assert walk_counts.main(argv) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["r", "k", "t", "maximal", "reached", "seconds", "status"]
    return [row.split() for row in rows]


def test_whole_columns_print_their_counts(capsys):
    rows = _rows(capsys, ["3,2", "2,5"])
    assert [row[:5] + row[6:] for row in rows] == [
        ["3", "2", "9", "68", "906", "done"],
        ["2", "5", "12", "6", "236", "done"],
    ]
    assert all(float(row[5]) >= 0 for row in rows)


def test_a_capped_column_reports_partial_progress(capsys):
    # the clock is read every 1,024 nodes, so a cap of 0 s stops the
    # [12] walk for (3, 3) at its 1,024th family, 27 of 3,427 yielded
    ((*_, maximal, reached, _, status),) = _rows(capsys, ["--seconds", "0", "3,3"])
    assert (int(maximal), int(reached), status) == (27, 1024, "partial")


@pytest.mark.parametrize("arg", ["0,1", "3,-1", "3", "a,b"])
def test_bad_columns_are_usage_errors(capsys, arg):
    with pytest.raises(SystemExit) as info:
        walk_counts.main([arg])
    assert info.value.code == 2
