import io
import json
import sys
from math import comb

import pytest

from conftest import run_in_fresh_interpreter, stabilize_by_shifts
from hyperext.cli import _parse_sweep_config, main
from hyperext.core import Hypergraph, serialize
from hyperext.extremal import build_extremal_family


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_writes_canonical_format(self, capsys, tmp_path):
        out = tmp_path / "fam.hg"
        code, _, _ = run(
            capsys, "construct", "--n", "6", "--k", "1", "--r", "2", "--a", "1", "-o", str(out)
        )
        assert code == 0
        assert out.read_text() == serialize(build_extremal_family(6, 1, 2, 1))

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "construct", "--n", "4", "--k", "1", "--r", "2", "--a", "1")
        assert code == 0
        assert out == "4 2\n1 2\n1 3\n1 4\n"

    def test_bad_parameters_exit_2(self, capsys):
        code, _, err = run(capsys, "construct", "--n", "3", "--k", "2", "--r", "2", "--a", "3")
        assert code == 2
        assert "error:" in err


class TestCount:
    def test_text_total(self, capsys, tmp_path):
        f = tmp_path / "h.hg"
        f.write_text(serialize(build_extremal_family(10, 2, 3, 1)))
        code, out, _ = run(capsys, "count", "--s", "3", str(f))
        assert code == 0
        assert out.strip() == "64"

    def test_json_with_per_vertex(self, capsys, tmp_path):
        f = tmp_path / "h.hg"
        f.write_text("3 2\n1 2\n1 3\n2 3\n")
        code, out, _ = run(
            capsys, "count", "--s", "3", "--per-vertex", "--format", "json", str(f)
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == "hyperext/1"
        assert obj["total"] == "1"
        assert obj["per_vertex"] == {"1": "1", "2": "1", "3": "1"}

    def test_clique_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        n = sys.getrecursionlimit() + 100
        f = tmp_path / "h.hg"
        f.write_text(serialize(Hypergraph.complete(n, 1)))
        code, out, _ = run(capsys, "count", "--s", str(n), str(f))
        assert code == 0
        assert out == "1\n"

    def test_stdin_dash(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("3 2\n1 2\n"))
        code, out, _ = run(capsys, "count", "--s", "2", "-")
        assert code == 0
        assert out.strip() == "1"

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.hg"
        f.write_text("not a header\n")
        code, _, err = run(capsys, "count", "--s", "2", str(f))
        assert code == 2
        assert "error:" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "count", "--s", "2", str(tmp_path / "absent.hg"))
        assert code == 2


class TestNu:
    def test_text_output(self, capsys, tmp_path):
        f = tmp_path / "h.hg"
        f.write_text("6 2\n1 2\n3 4\n5 6\n")
        code, out, _ = run(capsys, "nu", str(f))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "3"
        assert len(lines) == 4

    def test_json_witness_is_valid(self, capsys, tmp_path):
        f = tmp_path / "h.hg"
        f.write_text(serialize(build_extremal_family(10, 2, 3, 1)))
        code, out, _ = run(capsys, "nu", "--format", "json", str(f))
        assert code == 0
        obj = json.loads(out)
        assert obj["nu"] == 2
        assert len(obj["witness"]) == 2

    def test_budget_exit_3(self, capsys, tmp_path):
        f = tmp_path / "h.hg"
        f.write_text(serialize(build_extremal_family(9, 2, 3, 2)))
        code, _, err = run(capsys, "nu", "--budget", "2", str(f))
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one_exit_2(self, capsys, tmp_path, budget):
        f = tmp_path / "h.hg"
        f.write_text(serialize(build_extremal_family(9, 2, 3, 2)))
        code, out, err = run(capsys, "nu", "--budget", budget, str(f))
        assert code == 2 and out == ""
        assert "error:" in err and "budget" in err

    def test_star_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        n = sys.getrecursionlimit() + 100
        star = Hypergraph.from_edges(n, 2, [(1, v) for v in range(2, n + 1)])
        f = tmp_path / "star.hg"
        f.write_text(serialize(star))
        code, out, _ = run(capsys, "nu", str(f))
        assert code == 0
        assert out.splitlines()[0] == "1"


class TestShiftStabilize:
    def test_shift_once(self, capsys, tmp_path):
        f = tmp_path / "h.hg"
        f.write_text("4 2\n2 4\n")
        code, out, _ = run(capsys, "shift", "--i", "1", "--j", "4", str(f))
        assert code == 0
        assert out == "4 2\n1 2\n"

    def test_shift_bad_indices_exit_2(self, capsys, tmp_path):
        f = tmp_path / "h.hg"
        f.write_text("4 2\n2 4\n")
        code, _, _ = run(capsys, "shift", "--i", "4", "--j", "1", str(f))
        assert code == 2

    def test_stabilize_summary_on_stderr(self, capsys, tmp_path):
        f = tmp_path / "h.hg"
        f.write_text("3 2\n2 3\n")
        code, out, err = run(capsys, "stabilize", str(f))
        assert code == 0
        assert out == "3 2\n1 2\n"
        assert "2 applications" in err

    def test_stabilize_output_equals_shift_by_shift(self, capsys, tmp_path):
        h = Hypergraph.from_edges(
            7, 3, [(2, 5, 7), (3, 4, 6), (4, 6, 7), (1, 5, 6), (3, 5, 7), (2, 3, 4)]
        )
        trace = stabilize_by_shifts(h)
        assert len(trace.applications) > 1 and trace.rounds > 1
        f = tmp_path / "h.hg"
        f.write_text(serialize(h))
        code, out, err = run(capsys, "stabilize", str(f))
        assert code == 0
        assert out == serialize(trace.result)
        moved = sum(c for _, _, c in trace.applications)
        assert err == (
            f"# stabilize: {len(trace.applications)} applications, "
            f"{moved} edge moves, {trace.rounds} sweeps\n"
        )


class TestClosedForm:
    def test_value(self, capsys):
        code, out, _ = run(
            capsys, "closed-form", "--n", "10", "--k", "2", "--r", "3", "--a", "1", "--s", "3"
        )
        assert code == 0
        assert out.strip() == "64"


class TestVerify:
    def test_extremal_text_confirmed(self, capsys):
        code, out, _ = run(
            capsys, "verify", "extremal", "--n", "6", "--k", "1", "--r", "2", "--s", "2"
        )
        assert code == 0
        assert "confirmed" in out

    def test_extremal_json(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "extremal", "--n", "6", "--k", "1", "--r", "2", "--s", "2",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "confirmed"
        assert obj["observed_max"] == "5"

    def test_budget_exceeded_exit_3(self, capsys):
        code, out, err = run(
            capsys,
            "verify", "extremal", "--n", "9", "--k", "2", "--r", "3", "--s", "5",
            "--budget", "100",
        )
        assert code == 3 and out == ""
        assert "error:" in err and "after 100 nodes" in err

    def test_budget_counts_walk_and_nu_search_nodes(self, capsys):
        # the figure README gives: 2,031 families, and one ν-search node
        # to re-check the witness
        cell = ["--n", "9", "--k", "2", "--r", "3", "--s", "5"]
        code, out, _ = run(capsys, "verify", "extremal", *cell, "--budget", "2032")
        assert code == 0 and "bound-not-yet-active" in out
        code, out, err = run(capsys, "verify", "extremal", *cell, "--budget", "2031")
        assert code == 3 and out == ""
        assert "after 2031 nodes" in err

    # (9, 2, 3, 5) walks [9]; (10, 3, 3, 6) is below the span r(k+1) = 12,
    # where no walk runs
    @pytest.mark.parametrize("cell", [("9", "2", "3", "5"), ("10", "3", "3", "6")])
    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one_exit_2(self, capsys, cell, budget):
        n, k, r, s = cell
        code, out, err = run(
            capsys,
            "verify", "extremal", "--n", n, "--k", k, "--r", r, "--s", s,
            "--budget", budget,
        )
        assert code == 2 and out == ""
        assert "error:" in err and "budget" in err

    def test_full_enumeration_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(
                capsys,
                "verify", "extremal", "--n", "5", "--k", "1", "--r", "2", "--s", "2",
                "--full-enumeration",
            )
        assert info.value.code == 2
        assert "--full-enumeration" in capsys.readouterr().err

    def test_sweep_config_and_jsonl(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("r=2, k=1, s=2, n=5..7\n")
        code, out, _ = run(capsys, "verify", "sweep", "--config", str(cfg))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert [json.loads(l)["cell"]["n"] for l in lines] == [5, 6, 7]
        assert all(json.loads(l)["status"] == "confirmed" for l in lines)

    def test_broken_invariant_exits_4(self, capsys, monkeypatch, tmp_path):
        from hyperext import verifier

        # a pattern table whose one pattern is empty blocks every r-set
        # and leaves only the empty family
        monkeypatch.setattr(verifier, "perfect_matching_patterns", lambda r, k: ((),))
        code, out, _ = run(
            capsys, "verify", "extremal", "--n", "6", "--k", "1", "--r", "2", "--s", "2"
        )
        assert code == 4
        assert "invariant-broken" in out
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("r=2, k=1, s=2, n=5..6\n")
        code, out, _ = run(capsys, "verify", "sweep", "--config", str(cfg))
        assert code == 4
        assert [json.loads(l)["status"] for l in out.splitlines()] == [
            "invariant-broken"
        ] * 2

    def test_clique_recount_mismatch_exits_4(self, capsys, monkeypatch, tmp_path):
        from hyperext import verifier

        # an off-by-one weight, C(min(e), s - r): the witness's clique walk
        # disagrees with the summed weights
        monkeypatch.setattr(
            verifier,
            "_clique_weight",
            lambda e, r, s: comb((e & -e).bit_length(), s - r),
        )
        code, out, _ = run(
            capsys, "verify", "extremal", "--n", "6", "--k", "1", "--r", "2", "--s", "3"
        )
        assert code == 4
        assert "invariant-broken" in out
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("r=2, k=1, s=3, n=5..6\n")
        code, out, _ = run(capsys, "verify", "sweep", "--config", str(cfg))
        assert code == 4
        assert [json.loads(l)["status"] for l in out.splitlines()] == [
            "invariant-broken"
        ] * 2

    def test_sweep_writes_a_column_before_the_next_walk(self, monkeypatch, tmp_path):
        from hyperext import verifier

        class Stdout(io.StringIO):
            flushed = ""

            def flush(self):
                self.flushed = self.getvalue()

        out = Stdout()
        seen = []  # what stdout had flushed when each walk started
        walk = verifier.enumerate_stable

        def spy(*args, **kwargs):
            seen.append(out.flushed)
            return walk(*args, **kwargs)

        monkeypatch.setattr(verifier, "enumerate_stable", spy)
        monkeypatch.setattr(sys, "stdout", out)
        cfg = tmp_path / "sweep.cfg"
        # two (k, r) columns of one cell each, walked on [4] and on [6]
        cfg.write_text("n=8, r=2, k=1..2, s=2\n")
        assert main(["verify", "sweep", "--config", str(cfg)]) == 0
        lines = out.flushed.splitlines()
        assert [json.loads(l)["cell"]["k"] for l in lines] == [1, 2]
        assert seen == ["", lines[0] + "\n"]

    def test_sweep_stops_at_a_cell_that_raises(self, capsys, tmp_path):
        # cells in key order: (5, 1, 2, 2), then (6, 0, 2, 2), which raises
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("r=2, s=2, n=5..6, k=6-n\n")
        code, out, err = run(capsys, "verify", "sweep", "--config", str(cfg))
        assert code == 2
        assert [json.loads(l)["cell"]["n"] for l in out.splitlines()] == [5]
        assert "n, k, r, s must be positive" in err


    def test_one_column_sweep_runs_without_a_process_pool(self, tmp_path):
        # --jobs 2 is capped at the one (k, r) column, so the sweep runs
        # in-process and never imports concurrent.futures
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("r=3, k=1, s=3..5, n=max(s, r*k+r)..8\n")
        script = (
            "import sys\n"
            "from hyperext.cli import main\n"
            f"argv = ['verify', 'sweep', '--config', {str(cfg)!r}, '--jobs', '2']\n"
            "code = main(argv)\n"
            "print('pool' if 'concurrent.futures' in sys.modules else 'no pool')\n"
            "sys.exit(code)\n"
        )
        *lines, last = run_in_fresh_interpreter(script).splitlines()
        assert last == "no pool"
        assert len(lines) == 9

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_jobs_below_one_exit_2(self, capsys, tmp_path, jobs):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("r=2, k=1, s=2, n=5..6\n")
        code, out, err = run(
            capsys, "verify", "sweep", "--config", str(cfg), "--jobs", jobs
        )
        assert code == 2 and out == ""
        assert "error:" in err and "jobs" in err


class TestSweepConfigGrammar:
    def test_ranges_and_dependent_expressions(self):
        cells = _parse_sweep_config("r=2..3, k=1, s=r..r+1, n=max(s, r*k+r)..8")
        assert all(len(c) == 4 for c in cells)
        assert (4, 1, 2, 2) in cells
        for n, k, r, s in cells:
            assert r <= s and n <= 8

    @pytest.mark.parametrize(
        "text, expected",
        [
            (  # the grid.cfg of the README
                "r=2..3\nk=1..2\ns=r..min(8, r*k+r-1)\nn=max(s, r*k+r)..10\n",
                [
                    (n, k, r, s)
                    for r in (2, 3)
                    for k in (1, 2)
                    for s in range(r, min(8, r * k + r - 1) + 1)
                    for n in range(max(s, r * k + r), 11)
                ],
            ),
            (  # the grid of the sweep-wide benchmark workload
                "r=3\nk=1\ns=3..5\nn=max(s, r*k+r)..14\n",
                [(n, 1, 3, s) for s in (3, 4, 5) for n in range(max(s, 6), 15)],
            ),
            ("r=2, k=1, s=2, n=-(-9//2)..(7-1)*1", [(5, 1, 2, 2), (6, 1, 2, 2)]),
        ],
    )
    def test_documented_grids(self, text, expected):
        assert _parse_sweep_config(text) == expected

    @pytest.mark.parametrize(
        "line",
        [
            "n=().__class__.__name__.__len__()..6",
            "n=2**3",
            "n=9/2",
            "n=min(*[5])",
            "n=max(5, key=abs)",
            "n=5//0",
            "n=x+1",
            "n=True",
            "n=",
            "n=2..min(3)",
            "n=max(1)..6",
            # nested past the recursion limit of the evaluator, then the parser
            pytest.param("n=" + "+".join(["1"] * 2 * sys.getrecursionlimit()), id="sum"),
            pytest.param("n=" + "-" * 3 * sys.getrecursionlimit() + "1", id="minus"),
        ],
    )
    def test_expression_outside_grammar_exits_2(self, capsys, tmp_path, line):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"{line}\nk=1\nr=2\ns=2\n")
        code, out, err = run(capsys, "verify", "sweep", "--config", str(cfg))
        assert code == 2 and out == "" and "sweep expression" in err

    def test_comments_and_newlines(self):
        cells = _parse_sweep_config("# grid\nn=5..6\nk=1\nr=2\ns=2")
        assert cells == [(5, 1, 2, 2), (6, 1, 2, 2)]

    def test_missing_binding_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            _parse_sweep_config("n=5, k=1, r=2")

    def test_malformed_assignment_rejected(self):
        with pytest.raises(ValueError, match="assignment"):
            _parse_sweep_config("n5..6")


class TestRainbow:
    def test_found(self, capsys, tmp_path):
        f1 = tmp_path / "a.hg"
        f2 = tmp_path / "b.hg"
        f1.write_text("4 2\n1 2\n")
        f2.write_text("4 2\n3 4\n")
        code, out, _ = run(capsys, "rainbow", str(f1), str(f2))
        assert code == 0
        assert out.splitlines() == ["1: 1 2", "2: 3 4"]

    def test_not_found_exit_1(self, capsys, tmp_path):
        f = tmp_path / "a.hg"
        f.write_text("4 2\n1 2\n")
        code, out, _ = run(capsys, "rainbow", str(f), str(f))
        assert code == 1
        assert out.strip() == "none"

    def test_colours_past_the_recursion_limit(self, capsys, tmp_path):
        # the search once recursed once per colour: a RecursionError
        # escaped, and the command exited 1 as if there were none
        n = sys.getrecursionlimit() + 100
        f = tmp_path / "a.hg"
        f.write_text(serialize(Hypergraph.complete(n, 1)))
        code, out, _ = run(capsys, "rainbow", *[str(f)] * n)
        assert code == 0
        assert out.splitlines() == [f"{v}: {v}" for v in range(1, n + 1)]

    def test_member_with_other_r_exit_2(self, capsys, tmp_path):
        f3 = tmp_path / "a.hg"
        f2 = tmp_path / "b.hg"
        f3.write_text("5 3\n3 4 5\n")
        f2.write_text("4 2\n1 2\n")
        for files in ([f3, f2], [f2, f3]):
            code, out, err = run(capsys, "rainbow", *map(str, files))
            assert code == 2
            assert out == ""
            assert "error:" in err

    def test_hypothesis_lines(self, capsys, tmp_path):
        files = []
        for i in range(3):
            f = tmp_path / f"c{i}.hg"
            f.write_text(serialize(build_extremal_family(8, 2, 2, 2)))
            files.append(str(f))
        code, out, _ = run(
            capsys, "rainbow", *files, "--check-hypothesis", "--t", "2"
        )
        lines = out.splitlines()
        assert sum(1 for l in lines if l.startswith("# color")) == 3


class TestIneq:
    def test_all_hold(self, capsys):
        code, out, _ = run(
            capsys, "ineq", "--a", "10", "--b", "5", "--c", "3",
            "--p", "2", "--x", "1/3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all(": holds" in l for l in lines)

    def test_zero_denominator_exit_2(self, capsys):
        code, out, err = run(
            capsys, "ineq", "--a", "10", "--b", "5", "--c", "3",
            "--p", "2", "--x", "1/0",
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_precondition_reported(self, capsys):
        code, out, _ = run(capsys, "ineq", "--a", "3", "--b", "5", "--c", "1")
        assert code == 0
        assert "precondition" in out
