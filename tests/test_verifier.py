import gc
import importlib.util
import json
from math import comb
from pathlib import Path

import pytest
from mpmath import mp

from conftest import (
    all_families_prop32_cell,
    all_leaves_cell,
    clique_edges,
    every_graph_cell,
    naive_matching_number,
    naive_stable_families,
    nu_at_most_from_scratch,
    prop32_families,
)
from hyperext import verifier
from hyperext.cliques import CliqueCount, count_cliques
from hyperext.extremal import (
    ExtremalParams,
    binom,
    build_extremal_family,
    closed_form_clique_count,
    reaches_regime_threshold,
)
from hyperext.core import Budget, BudgetExceededError, ColoredFamily, Hypergraph
from hyperext.matchings import (
    find_rainbow_matching,
    has_matching_at_most,
    matching_number,
)
from hyperext.shifting import (
    enumerate_stable,
    is_stable,
    stable_closure_check,
)
from hyperext.verifier import (
    BOUND_NOT_YET_ACTIVE,
    CONFIRMED,
    INVARIANT_BROKEN,
    VerificationReport,
    run_extremal_sweep,
    stable_with_matching_at_most,
    verify_extremal_cell,
    verify_proposition_3_2,
    verify_rainbow_cell,
)


class TestStableWithMatching:
    def test_members_are_stable_with_small_nu(self):
        fams = list(stable_with_matching_at_most(6, 2, 1))
        assert fams
        for h in fams:
            assert is_stable(h)
            assert matching_number(h)[0] <= 1

    def test_no_qualifying_family_missed(self):
        direct = [
            set(h.edges)
            for h in enumerate_stable(6, 2)
            if matching_number(h)[0] <= 1
        ]
        tops = {
            frozenset(d) for d in direct if not any(d < other for other in direct)
        }
        pruned = {frozenset(h.edges) for h in stable_with_matching_at_most(6, 2, 1)}
        assert pruned == tops

    def test_nu_needs_only_the_edges_inside_the_span(self):
        # a stable family has k+1 disjoint edges iff it has them in [r(k+1)]
        checked = 0
        for n in range(1, 9):
            for r in range(1, n + 1):
                for h in enumerate_stable(n, r):
                    for k in range(n // r):
                        span = (1 << r * (k + 1)) - 1
                        inside = tuple([e for e in h.edges if not e & ~span])
                        assert has_matching_at_most(h, k) == has_matching_at_most(
                            Hypergraph._make(n, r, inside), k
                        ), (h, k)
                        checked += 1
        assert checked > 20000

    @pytest.mark.parametrize(
        "n, r, k",
        [
            # n > r(k+1)
            (8, 2, 1), (8, 2, 2), (7, 3, 1), (8, 3, 1), (5, 1, 2),
            (9, 3, 1), (10, 2, 2), (10, 3, 1), (11, 2, 2),
            # n = r(k+1)
            (6, 2, 2), (6, 3, 1),
            # n < r(k+1)
            (7, 2, 3), (7, 3, 2), (6, 4, 1), (5, 1, 6),
            # k = 0
            (5, 1, 0), (6, 2, 0), (6, 3, 0),
        ],
    )
    def test_span_restricted_walk_equals_the_per_element_walk(self, n, r, k):
        got = stable_with_matching_at_most(n, r, k)
        want = naive_stable_families(n, r, nu_at_most_from_scratch(k), maximal=True)
        assert [h.edges for h in got] == [h.edges for h in want]

    @pytest.mark.parametrize(
        "r, k", [(1, 0), (1, 2), (2, 0), (2, 1), (2, 2), (3, 1), (3, 0), (4, 1)]
    )
    def test_maximal_families_above_the_span_lift_those_on_it(self, r, k):
        t = r * (k + 1)
        span = (1 << t) - 1
        on_span = [h.edges for h in stable_with_matching_at_most(t, r, k)]
        for n in range(t + 1, t + 4):
            got = list(stable_with_matching_at_most(n, r, k))
            for h in got:
                assert h.n == n and stable_closure_check(h)
                assert naive_matching_number(h) <= k
            traces = [tuple([e for e in h.edges if not e & ~span]) for h in got]
            assert traces == on_span, (n, r, k)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            stable_with_matching_at_most(5, 2, -1)

    @pytest.mark.parametrize("n", [6, 8, 4])
    def test_spent_budget_stops_the_stream(self, n):
        # (r, k) = (2, 2): n = 4 is below the span 6, where no walk runs
        # but the complete graph still costs one node
        budget = Budget(1)
        budget.spend()
        with pytest.raises(BudgetExceededError):
            list(stable_with_matching_at_most(n, 2, 2, budget=budget))


class TestExtremalCell:
    def test_confirmed_graph_cells(self):
        # max edges with nu <= 1 on 5 vertices: the star, C(5,2)-C(4,2) = 4
        rep = verify_extremal_cell(5, 1, 2, 2)
        assert rep.status == CONFIRMED
        assert rep.observed_max == 4
        assert rep.claimed_bound == 4
        assert matching_number(rep.witness)[0] <= 1

    def test_star_regime_cell(self):
        rep = verify_extremal_cell(6, 1, 2, 2)
        assert rep.regime == "I"
        assert rep.status == CONFIRMED
        assert rep.observed_max == 5  # the star on 6 vertices

    def test_witness_attains_observed_max(self):
        rep = verify_extremal_cell(7, 2, 2, 3)
        assert count_cliques(rep.witness, 3).total == rep.observed_max
        assert matching_number(rep.witness)[0] <= 2

    def test_full_enumeration_agrees_with_stable_reduction(self):
        for n, k, r, s in [(5, 1, 2, 2), (5, 1, 2, 3), (6, 2, 2, 2), (5, 1, 3, 3)]:
            fast = verify_extremal_cell(n, k, r, s)
            slow = every_graph_cell(n, k, r, s)
            assert fast.observed_max == slow["observed_max"]
            assert fast.status == slow["status"]
            assert fast.second_best == slow["second_best"]

    def test_small_n_regime_iii_not_yet_active(self):
        # n below rk+r-1 cannot host the complete-head family
        rep = verify_extremal_cell(4, 2, 2, 5)
        assert rep.regime == "III"
        assert rep.status in (CONFIRMED, BOUND_NOT_YET_ACTIVE)

    def test_json_line_shape_and_determinism(self):
        rep = verify_extremal_cell(6, 1, 2, 2)
        line = rep.to_json_line(omit_timing=True)
        again = verify_extremal_cell(6, 1, 2, 2).to_json_line(omit_timing=True)
        assert line == again
        obj = json.loads(line)
        assert obj["schema"] == "hyperext/1"
        assert obj["cell"] == {"n": 6, "k": 1, "r": 2, "s": 2}
        assert obj["status"] == CONFIRMED
        assert obj["claimed_bound"] == "5"
        assert obj["millis"] == 0


def _assert_budget_needed(verify, cell, need):
    """``verify(*cell)`` passes with a budget of ``need`` nodes, with the
    report it gives unbudgeted, and raises with one node less."""
    rep = verify(*cell, budget=Budget(need))
    assert rep.to_json_line(omit_timing=True) == verify(*cell).to_json_line(
        omit_timing=True
    )
    with pytest.raises(BudgetExceededError, match=f"after {need - 1} nodes"):
        verify(*cell, budget=Budget(need - 1))
    return rep


def _small_cells(max_universe: int):
    for r in range(1, 5):
        for k in range(1, 4):
            for s in range(r, r * k + r):
                n = r
                while comb(n, r) <= max_universe:
                    yield n, k, r, s
                    n += 1


class TestMaximalOnlySearch:
    def test_agrees_with_counting_at_every_leaf(self):
        cells = list(_small_cells(45))
        assert len(cells) > 500
        for cell in cells:
            rep = verify_extremal_cell(*cell)
            got = {
                "regime": rep.regime,
                "claimed_bound": rep.claimed_bound,
                "observed_max": rep.observed_max,
                "status": rep.status,
                "second_best": rep.second_best,
            }
            assert got == all_leaves_cell(*cell), cell

    def test_counts_only_maximal_families(self):
        rep = verify_extremal_cell(7, 2, 2, 3)
        maximal = list(enumerate_stable(7, 2, nu_at_most_from_scratch(2), maximal=True))
        assert rep.nodes == len(maximal)
        assert rep.witness in maximal

    def test_second_best_descends_past_families_at_the_bound(self, monkeypatch):
        # valued by edge count, no single removal takes a maximal family
        # with nu <= 2 on [7] from the top down to below the bound of 5
        monkeypatch.setattr(
            verifier, "count_cliques", lambda h, s: CliqueCount(s, len(h.edges))
        )
        rep = verify_extremal_cell(7, 2, 2, 4)
        assert rep.regime == "III" and rep.claimed_bound == 5
        sizes = [
            len(h.edges) for h in enumerate_stable(7, 2, nu_at_most_from_scratch(2))
        ]
        assert rep.second_best == max(v for v in sizes if v < 5) == 4
        assert min(
            len(h.edges)
            for h in enumerate_stable(7, 2, nu_at_most_from_scratch(2), maximal=True)
        ) > 6

    def test_no_reference_cycle_left_behind(self):
        # two colours of the star on [8]: no rainbow matching, so the
        # rainbow search exhausts
        star = build_extremal_family(8, 1, 2, 1)
        routes = [
            lambda: verify_extremal_cell(7, 2, 2, 3),
            lambda: list(enumerate_stable(6, 2, maximal=True)),
            lambda: list(stable_with_matching_at_most(7, 2, 2)),
            lambda: verify_proposition_3_2(7, 1, 3, 4),
            lambda: find_rainbow_matching(ColoredFamily(8, 2, (star, star))),
            lambda: stable_closure_check(build_extremal_family(9, 2, 3, 1)),
        ]
        gc.collect()
        gc.disable()
        try:
            for route in routes:
                route()
                assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("n", [9, 12])
    def test_budget_a_cell_needs_does_not_depend_on_n(self, n):
        # above the span r(k+1) = 9 the walk still runs on [9]: 11,720
        # families and 41,040 nodes of the ν searches they ask
        rep = _assert_budget_needed(verify_extremal_cell, (n, 2, 3, 5), 52760)
        assert rep.nodes == 68

    @pytest.mark.parametrize(
        "n, k, r, s, need",
        [
            (14, 5, 2, 3, 10478),
            (20, 5, 2, 3, 10478),
            # regime III: the descent spends one node per family it counts
            (8, 1, 3, 5, 97),
            (14, 1, 3, 5, 97),
        ],
    )
    def test_one_budget_covers_every_inner_search(self, n, k, r, s, need):
        _assert_budget_needed(verify_extremal_cell, (n, k, r, s), need)

    def test_below_the_span_the_complete_graph_is_the_one_family(self):
        # r(k+1) = 12 > 10: no 3-graph on [10] has 4 disjoint edges
        rep = verify_extremal_cell(10, 3, 3, 6, budget=Budget(1))
        assert rep.nodes == 1
        assert rep.observed_max == 210 == comb(10, 6)
        assert rep.witness == Hypergraph.complete(10, 3)
        budget = Budget(1)
        budget.spend()
        with pytest.raises(BudgetExceededError):
            verify_extremal_cell(10, 3, 3, 6, budget=budget)

    def test_broken_invariant_is_reported(self, monkeypatch):
        monkeypatch.setattr(
            verifier, "has_matching_at_most", lambda h, k, budget: False
        )
        rep = verify_extremal_cell(6, 1, 2, 2)
        assert rep.observed_max == 0 < rep.claimed_bound
        assert rep.status == INVARIANT_BROKEN
        # below the head size rk+r-1 = 5 the same shortfall is no breach
        assert verify_extremal_cell(4, 2, 2, 5).status == BOUND_NOT_YET_ACTIVE


def _threshold_mp(p: ExtremalParams):
    k, r, s = p.k, p.r, p.s
    if p.regime == "I":
        return 4 * (mp.e * r) ** (s - r + 2) * k
    a = p.a
    return 4 * r * r * k * (mp.e * r / (a - 1)) ** (s - r + a)


def test_regime_threshold_is_exact():
    checked = 0
    with mp.workdps(60):
        for k in range(1, 7):
            for r in range(1, 6):
                for s in range(r, (r - 1) * (k + 1) + 1):
                    t = _threshold_mp(ExtremalParams(1, k, r, s))
                    if t > mp.mpf(10) ** 40:
                        continue
                    f = int(mp.floor(t))
                    for n in {1, max(f - 1, 1), max(f, 1), f + 1, f + 2}:
                        got = reaches_regime_threshold(ExtremalParams(n, k, r, s))
                        assert got == (n >= t), (n, k, r, s)
                        checked += 1
    assert checked > 300
    # a float from math.e gets this one wrong
    assert not reaches_regime_threshold(ExtremalParams(179202002907511, 4, 5, 16))


class TestRegimeIIIGap:
    def test_second_best_stays_below_gap(self):
        # r=2, k=1, s=3: bound C(3,3)=1, gap C(3,3)-C(1,1)=0, i.e.
        # nothing with nu <= 1 other than the triangle has any 3-clique
        rep = verify_extremal_cell(6, 1, 2, 3)
        assert rep.regime == "III"
        assert rep.status == CONFIRMED


class TestRainbowCell:
    def test_confirmed_cell(self):
        rep = verify_rainbow_cell(8, 2, 2, 2, trials=20, seed=5)
        assert rep.status == CONFIRMED
        assert rep.claimed_bound == 21
        assert rep.observed_max == 21

    def test_seed_reproducibility(self):
        a = verify_rainbow_cell(8, 3, 2, 3, trials=10, seed=1)
        b = verify_rainbow_cell(8, 3, 2, 3, trials=10, seed=1)
        assert a.to_json_line(omit_timing=True) == b.to_json_line(omit_timing=True)


class TestProposition:
    def test_confirmed_small_cells(self):
        for n, k, r, s in [(6, 1, 2, 3), (7, 1, 3, 4)]:
            rep = verify_proposition_3_2(n, k, r, s)
            assert rep.status == CONFIRMED
            assert rep.observed_max == 0
            assert rep.witness is None
            # one node per maximal family
            assert rep.nodes == sum(
                1
                for _ in naive_stable_families(
                    n, r, nu_at_most_from_scratch(k), maximal=True
                )
            )

    @pytest.mark.parametrize(
        "n, k, r",
        [
            # n < r(k+1)
            (3, 1, 2), (5, 1, 3), (5, 2, 2), (7, 1, 4), (7, 2, 3),
            # n = r(k+1)
            (4, 1, 2), (6, 1, 3), (6, 2, 2),
            # n > r(k+1)
            (5, 1, 2), (7, 1, 2), (7, 1, 3), (8, 1, 3), (7, 2, 2), (8, 2, 2),
        ],
    )
    def test_agrees_with_every_family(self, n, k, r):
        for s in range(k + r, r * k + r):
            rep = verify_proposition_3_2(n, k, r, s)
            got = {"status": rep.status, "observed_max": rep.observed_max}
            assert got == all_families_prop32_cell(n, k, r, s), (n, k, r, s)

    @pytest.mark.parametrize(
        "n, k, r",
        [
            # n < r(k+1)
            (5, 1, 3), (7, 1, 4), (7, 2, 3), (8, 4, 2),
            # n = r(k+1)
            (4, 1, 2), (6, 1, 3), (6, 2, 2), (8, 3, 2),
            # n > r(k+1)
            (6, 1, 2), (8, 1, 2), (7, 1, 3), (8, 1, 3), (9, 1, 3), (10, 1, 3),
            (11, 1, 3), (7, 2, 2), (8, 2, 2), (9, 2, 2), (10, 2, 2), (9, 3, 2),
            (10, 3, 2), (5, 2, 1), (7, 3, 1),
        ],
    )
    def test_clique_edges_of_the_maximal_families_are_all_the_edges(self, n, k, r):
        # the edges of the families that meet the precondition are those
        # of M_s over the maximal M, and each M_s meets it; the lemma
        # holds for every s above r, not only in the proposition's range
        for s in range(r + 1, r * k + r):
            want = {e for h in prop32_families(n, k, r, s) for e in h.edges}
            got = set()
            for m in stable_with_matching_at_most(n, r, k):
                core = clique_edges(m, s)
                assert stable_closure_check(core)
                assert naive_matching_number(core) <= k
                assert clique_edges(core, s) == core
                got.update(core.edges)
            assert got == want, (n, k, r, s)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            verify_proposition_3_2(6, 1, 2, 2)  # s below k+r

    def test_budget_covers_the_walk_and_its_nu_searches(self):
        # the same walk and ν searches as the extremal cell (9, 2, 3, 5)
        _assert_budget_needed(verify_proposition_3_2, (9, 2, 3, 5), 52760)


def _perfbench_tracing():
    """The benchmark's tracing module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_hooks_resolve_on_the_verifier():
    # the benchmark's --trace replaces these verifier globals by name
    tracing = _perfbench_tracing()
    originals = {name: getattr(verifier, name) for name in tracing.VERIFIER_HOOKS}
    assert all(callable(fn) for fn in originals.values())
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        verifier.verify_extremal_cell(7, 2, 2, 3).to_json_line()
        # the wrappers hand the budget on to the walk and the ν searches
        _assert_budget_needed(verifier.verify_extremal_cell, (7, 2, 2, 3), 65)
    recorded = {span[0] for span in tracer.spans}
    assert {
        "verifier.cell",
        "extremal.bound",
        "shifting.walk",
        "matchings.nu",
        "cliques.count",
        "core.serialize",
    } <= recorded
    assert all(getattr(verifier, name) is fn for name, fn in originals.items())


class TestSweep:
    CELLS = [(6, 1, 2, 2), (5, 1, 2, 2), (6, 1, 2, 3), (6, 1, 2, 2)]

    def test_sorted_deduplicated_order(self):
        reports = run_extremal_sweep(self.CELLS)
        keys = [tuple(r.cell[x] for x in ("n", "k", "r", "s")) for r in reports]
        assert keys == sorted(set(self.CELLS))

    def test_parallel_matches_serial(self):
        serial = run_extremal_sweep(self.CELLS, jobs=1)
        parallel = run_extremal_sweep(self.CELLS, jobs=2)
        assert [r.to_json_line(omit_timing=True) for r in serial] == [
            r.to_json_line(omit_timing=True) for r in parallel
        ]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_extremal_sweep(self.CELLS, jobs=jobs)

    def test_sweep_agrees_with_closed_form(self):
        reports = run_extremal_sweep([(n, 1, 2, 2) for n in range(5, 9)])
        for rep in reports:
            n = rep.cell["n"]
            assert rep.observed_max == max(
                binom(3, 2), closed_form_clique_count(n, 1, 2, 1, 2)
            )
