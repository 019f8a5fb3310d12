import gc
import json
import sys
import tracemalloc
from math import comb

import pytest
from hypothesis import example, given, settings
from mpmath import mp

from conftest import (
    all_families_prop32_cell,
    all_leaves_cell,
    avoiding,
    carried_by_image_dict,
    clique_edges,
    column_blocker_rule,
    every_graph_cell,
    hosts,
    naive_matching_number,
    naive_stable_families,
    nu_at_most_from_scratch,
    perfbench_module,
    project,
    prop32_families,
)
from hyperext import verifier
from hyperext.cliques import count_cliques
from hyperext.extremal import (
    ExtremalParams,
    binom,
    build_extremal_family,
    closed_form_clique_count,
    reaches_regime_threshold,
)
from hyperext.core import (
    Budget,
    BudgetExceededError,
    ColoredFamily,
    Hypergraph,
    r_subsets,
)
from hyperext.matchings import (
    find_rainbow_matching,
    has_matching_at_most,
    matching_number,
)
from hyperext.shifting import (
    enumerate_stable,
    is_stable,
    lift,
    precedes,
    stabilize,
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
            for h in naive_stable_families(6, 2)
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
                for h in naive_stable_families(n, r):
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

    @pytest.mark.parametrize(
        "r, k, questions",
        [
            (1, 1, 2), (1, 2, 3), (1, 3, 4), (2, 0, 1), (2, 1, 8),
            (2, 2, 48), (2, 3, 256), (3, 0, 1), (3, 1, 120), (4, 1, 36476),
            (3, 2, 91404),
        ],
    )
    def test_pattern_lookup_equals_the_nu_search(self, monkeypatch, r, k, questions):
        # the blocker rule the verifier hands the walk on [t], t = r(k+1),
        # against a ν search on the edges that miss e: every stable
        # family, passing or not, with every r-set outside it whose
        # covers it holds
        t = r * (k + 1)
        fits = avoiding(column_blocker_rule(monkeypatch, r, k))
        universe = sorted(r_subsets(t, r))
        below = {
            e: [f for f in universe if f != e and precedes(f, e)] for e in universe
        }
        covers = {
            e: [f for f in fs if not any(f != g and precedes(f, g) for g in fs)]
            for e, fs in below.items()
        }
        asked = 0
        for h in naive_stable_families(t, r):
            for e in universe:
                if e not in h.edge_set and all(f in h.edge_set for f in covers[e]):
                    rest = tuple([f for f in h.edges if not f & e])
                    want = has_matching_at_most(Hypergraph._make(t, r, rest), k - 1)
                    assert fits(h, e) == want, (h, e)
                    asked += 1
        assert asked == questions

    @pytest.mark.parametrize(
        "r, k",
        [
            (1, 0), (1, 3), (2, 0), (2, 1), (2, 2), (2, 5), (3, 0), (3, 1),
            (3, 2), (3, 3), (4, 1), (4, 2), (5, 1),
        ],
    )
    def test_carried_patterns_equal_the_image_dict(self, monkeypatch, r, k):
        # every r-set of [t], the same blocker sets in the same order
        carried = column_blocker_rule(monkeypatch, r, k)
        oracle = carried_by_image_dict(r, k)
        universe = sorted(r_subsets(r * (k + 1), r))
        assert [carried(e) for e in universe] == [oracle(e) for e in universe]

    @pytest.mark.parametrize("n, r", [(1, 1), (4, 1), (3, 3), (7, 3), (8, 4)])
    def test_k_zero_leaves_only_the_empty_family(self, n, r):
        assert list(stable_with_matching_at_most(n, r, 0)) == [Hypergraph(n, r, ())]

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


def _top_r_count(h: Hypergraph, s: int) -> int:
    return sum(verifier._clique_weight(e, h.r, s) for e in h.edges)


class TestTopRCount:
    """K_s of a downset as one binomial per edge, against the clique walk."""

    def test_every_maximal_family_of_six_columns(self):
        pairs = 0
        for n, k, r in [
            (9, 2, 3), (8, 1, 4), (14, 5, 2), (10, 1, 3), (12, 3, 2), (7, 1, 3)
        ]:
            for h in stable_with_matching_at_most(n, r, k):
                for s in range(r, n + 1):
                    assert _top_r_count(h, s) == count_cliques(h, s).total, (h, s)
                    pairs += 1
        assert pairs == 1036

    @settings(max_examples=150, deadline=None)
    @given(hosts())
    @example(Hypergraph(5, 2, ()))
    @example(Hypergraph.complete(7, 3))
    def test_every_stabilized_host(self, h):
        g = stabilize(h).result
        for s in range(g.r, g.n + 2):
            assert _top_r_count(g, s) == count_cliques(g, s).total, s

    @pytest.mark.parametrize("n, r, k", [(7, 3, 1), (7, 2, 2), (8, 3, 1)])
    def test_descent_to_every_downset_below_the_maximal_families(self, n, r, k):
        # a bound of 0 keeps every child on the stack, so the descent
        # values each downset below a maximal family once
        pred = nu_at_most_from_scratch(k)
        below = {h.edges for h in naive_stable_families(n, r, pred)} - {
            h.edges for h in naive_stable_families(n, r, pred, maximal=True)
        }
        for s in range(r, n + 1):
            seen = set()
            for h in stable_with_matching_at_most(n, r, k):
                value = count_cliques(h, s).total
                for child, val in verifier._descend(h, value, s, 0, seen, Budget()):
                    assert val == count_cliques(child, s).total, (child, s)
            assert seen == below

    def test_descent_on_the_regime_iii_cells_of_the_sweep_grid(self, monkeypatch):
        # the benchmark's sweep grid: r=3, k=1, s=3..5, n=max(s, 6)..14
        descend = verifier._descend
        checked = []

        def spy(h, value, s, *rest):
            assert value == count_cliques(h, s).total
            for child, val in descend(h, value, s, *rest):
                assert val == count_cliques(child, s).total, (child, s)
                checked.append(child)
                yield child, val

        monkeypatch.setattr(verifier, "_descend", spy)
        cells = [(n, 1, 3, s) for s in range(3, 6) for n in range(max(s, 6), 15)]
        regime_iii = [c for c in cells if verify_extremal_cell(*c).regime == "III"]
        assert regime_iii == [(n, 1, 3, 5) for n in range(6, 15)]
        assert len(checked) == 9

    def test_the_clique_walk_runs_once_on_the_witness(self, monkeypatch):
        counted = []

        def spy(h, s):
            counted.append(h)
            return count_cliques(h, s)

        monkeypatch.setattr(verifier, "count_cliques", spy)
        rep = verify_extremal_cell(9, 2, 3, 5)
        assert rep.nodes == 68 and rep.status == BOUND_NOT_YET_ACTIVE
        assert counted == [rep.witness]

    @pytest.mark.parametrize("cell", [(6, 1, 2, 3), (8, 1, 3, 5), (4, 2, 2, 5)])
    def test_witness_whose_clique_recount_differs_is_reported(
        self, monkeypatch, cell
    ):
        # an off-by-one weight, C(min(e), s - r): the witness's clique walk
        # disagrees with the sum, in regime III and below the span alike
        good = verify_extremal_cell(*cell)
        monkeypatch.setattr(
            verifier,
            "_clique_weight",
            lambda e, r, s: comb((e & -e).bit_length(), s - r),
        )
        rep = verify_extremal_cell(*cell)
        assert rep.observed_max > good.observed_max
        assert rep.status == INVARIANT_BROKEN != good.status


class TestSpanTable:
    """K_s of a lifted family from the table on the span, against the
    clique walk on the lift."""

    @staticmethod
    def _pairs(columns, ns):
        """Check every maximal family of each column (k, r) at each n of
        ``ns(t)`` and every s of regimes I, II and III; return the number
        of (family, n, s) checked."""
        pairs = 0
        for k, r in columns:
            t = r * (k + 1)
            families = list(stable_with_matching_at_most(t, r, k))
            for n in ns(t):
                lifts = [lift(g, n) for g in families]
                for s in range(r, r * k + r):
                    table = verifier._span_weights(t, n, r, s)
                    for g, h in zip(families, lifts):
                        got = sum(table[f] for f in g.edges)
                        assert got == count_cliques(h, s).total, (g, n, s)
                        pairs += 1
        return pairs

    def test_every_maximal_family_of_four_columns(self):
        pairs = self._pairs(
            [(1, 3), (2, 2), (1, 4), (2, 3)], lambda t: range(t, t + 4)
        )
        # 6, 3, 72 and 68 maximal families, times the s, times 4 n
        assert pairs == 4 * (6 * 3 + 3 * 4 + 72 * 4 + 68 * 6) == 2904

    def test_far_n_where_the_top_fibre_holds_most_r_sets(self):
        # at n = 2t and 3t most r-sets of [n] leave [t] at the top
        pairs = self._pairs([(1, 3), (2, 2)], lambda t: (2 * t, 3 * t))
        assert pairs == 2 * (6 * 3 + 3 * 4) == 60

    @pytest.mark.parametrize("k, r", [(0, 1), (0, 3), (1, 2), (1, 3), (2, 2)])
    def test_table_equals_the_sum_over_each_fibre(self, k, r):
        # the closed form against the weights summed over the r-sets of
        # [n], each taken to its image under π (k = 0: t = r)
        t = r * (k + 1)
        for n in (t, t + 1, t + 3, 2 * t + 1):
            for s in range(r, r + 4):
                want = {f: 0 for f in r_subsets(t, r)}
                for e in r_subsets(n, r):
                    want[project(e, t)] += verifier._clique_weight(e, r, s)
                assert verifier._span_weights(t, n, r, s) == want, (n, s)

    def test_the_descent_starts_from_the_lift(self, monkeypatch):
        # one column pass over four regime-III cells: each descends from
        # the lift of the family it values, on its own [n]
        descend = verifier._descend
        starts = []

        def spy(h, *rest):
            starts.append(h)
            return descend(h, *rest)

        monkeypatch.setattr(verifier, "_descend", spy)
        list(run_extremal_sweep([(n, 1, 3, 5) for n in range(6, 10)]))
        assert [h.n for h in starts] == [6, 7, 8, 9]
        for h in starts:
            trace = tuple([e for e in h.edges if not e >> 6])
            assert h == lift(Hypergraph._make(6, 3, trace), h.n)


class TestNoListingOfN:
    """A cell lists the r-sets of [t] only, never those of [n]."""

    @staticmethod
    def _spy_r_subsets(monkeypatch):
        calls = []
        for name, module in list(sys.modules.items()):
            real = getattr(module, "r_subsets", None)
            if name.startswith("hyperext") and real is not None:

                def spy(n, r, real=real):
                    calls.append(n)
                    return real(n, r)

                monkeypatch.setattr(module, "r_subsets", spy)
        return calls

    @pytest.mark.parametrize("cell", [(1100, 1, 2, 2), (96, 2, 3, 5)])
    def test_r_subsets_only_on_the_span(self, monkeypatch, cell):
        n, k, r, s = cell
        calls = self._spy_r_subsets(monkeypatch)
        rep = verify_extremal_cell(*cell)
        assert rep.status == CONFIRMED
        assert calls and max(calls) <= r * (k + 1)

    def test_far_cell_stays_small(self):
        tracemalloc.start()
        try:
            rep = verify_extremal_cell(1100, 1, 2, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.observed_max == 1099  # the star at vertex 1
        assert peak < 20 * 2**20


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
        maximal = list(
            naive_stable_families(7, 2, nu_at_most_from_scratch(2), maximal=True)
        )
        assert rep.nodes == len(maximal)
        assert rep.witness in maximal

    def test_second_best_descends_past_families_at_the_bound(self, monkeypatch):
        # valued by edge count, no single removal takes a maximal family
        # with nu <= 2 on [7] from the top down to below the bound of 5
        monkeypatch.setattr(verifier, "_clique_weight", lambda e, r, s: 1)
        rep = verify_extremal_cell(7, 2, 2, 4)
        assert rep.regime == "III" and rep.claimed_bound == 5
        sizes = [
            len(h.edges)
            for h in naive_stable_families(7, 2, nu_at_most_from_scratch(2))
        ]
        assert rep.second_best == max(v for v in sizes if v < 5) == 4
        assert min(
            len(h.edges)
            for h in naive_stable_families(
                7, 2, nu_at_most_from_scratch(2), maximal=True
            )
        ) > 6

    def test_no_reference_cycle_left_behind(self):
        # two colours of the star on [8]: no rainbow matching, so the
        # rainbow search exhausts
        star = build_extremal_family(8, 1, 2, 1)
        routes = [
            lambda: verify_extremal_cell(7, 2, 2, 3),
            lambda: list(enumerate_stable(6, 2, lambda e: ())),
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
        # above the span r(k+1) = 9 the walk still runs on [9]: 906
        # families, and its ν test runs no search; the witness's re-check
        # on [n] takes one node at n = 9 and n = 12
        rep = _assert_budget_needed(verify_extremal_cell, (n, 2, 3, 5), 907)
        assert rep.nodes == 68

    @pytest.mark.parametrize(
        "n, k, r, s, need",
        [
            # 236 families on [12] and one re-check node
            (14, 5, 2, 3, 237),
            (20, 5, 2, 3, 237),
            # regime III: 28 families on [6], one the descent counts and
            # one re-check node
            (8, 1, 3, 5, 30),
            (14, 1, 3, 5, 30),
        ],
    )
    def test_one_budget_covers_every_inner_search(self, n, k, r, s, need):
        _assert_budget_needed(verify_extremal_cell, (n, k, r, s), need)

    def test_below_the_span_the_complete_graph_is_the_one_family(self):
        # r(k+1) = 12 > 10: no 3-graph on [10] has 4 disjoint edges; one
        # node for the family and one to re-check the witness
        rep = _assert_budget_needed(verify_extremal_cell, (10, 3, 3, 6), 2)
        assert rep.nodes == 1
        assert rep.observed_max == 210 == comb(10, 6)
        assert rep.witness == Hypergraph.complete(10, 3)

    def test_broken_invariant_is_reported(self, monkeypatch):
        # a pattern table whose one pattern is empty: the walk's ν test
        # rejects every edge
        monkeypatch.setattr(verifier, "perfect_matching_patterns", lambda r, k: ((),))
        rep = verify_extremal_cell(6, 1, 2, 2)
        assert rep.observed_max == 0 < rep.claimed_bound
        assert rep.status == INVARIANT_BROKEN
        # below the head size rk+r-1 = 5 the same shortfall is no breach
        assert verify_extremal_cell(4, 2, 2, 5).status == BOUND_NOT_YET_ACTIVE

    @pytest.mark.parametrize("cell", [(6, 1, 2, 2), (4, 2, 2, 5)])
    def test_witness_that_fails_its_nu_recheck_is_reported(self, monkeypatch, cell):
        # the walk and the counts are sound, so only the re-check of the
        # witness, on [n] and below the span alike, can see the breach
        good = verify_extremal_cell(*cell)
        monkeypatch.setattr(
            verifier, "has_matching_at_most", lambda h, k, budget: False
        )
        rep = verify_extremal_cell(*cell)
        assert rep.status == INVARIANT_BROKEN != good.status
        assert (rep.observed_max, rep.witness) == (good.observed_max, good.witness)


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
        # the same walk as the extremal cell (9, 2, 3, 5), 906 families,
        # without the witness's re-check
        _assert_budget_needed(verify_proposition_3_2, (9, 2, 3, 5), 906)


def test_benchmark_trace_hooks_resolve_on_the_verifier():
    # the benchmark's --trace replaces these verifier globals by name
    tracing = perfbench_module("tracing")
    originals = {name: getattr(verifier, name) for name in tracing.VERIFIER_HOOKS}
    assert all(callable(fn) for fn in originals.values())
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        verifier.verify_extremal_cell(7, 2, 2, 3).to_json_line()
        # the wrappers hand the budget on to the walk and the re-check:
        # 16 families and one ν-search node
        _assert_budget_needed(verifier.verify_extremal_cell, (7, 2, 2, 3), 17)
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

    # four (k, r) columns, cells below the span r(k+1) and regime III
    GRID = [
        (n, k, r, s)
        for r in (2, 3)
        for k in (1, 2)
        for s in range(r, r * k + r)
        for n in range(s, 9)
    ]

    def test_grid_has_what_the_column_pass_must_handle(self):
        assert {(k, r) for _, k, r, _ in self.GRID} == {
            (1, 2), (2, 2), (1, 3), (2, 3)
        }
        assert any(n < r * (k + 1) for n, k, r, _ in self.GRID)
        assert any(n >= r * (k + 1) for n, k, r, _ in self.GRID)
        assert any(s == r * k + r - 1 for _, k, r, s in self.GRID)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_columns_give_the_reports_of_single_cells(self, jobs):
        def lines(reports):
            return [
                (rep.to_json_line(omit_timing=True), rep.second_best)
                for rep in reports
            ]

        want = lines(verify_extremal_cell(*c) for c in sorted(self.GRID))
        assert lines(run_extremal_sweep(self.GRID[::-1], jobs=jobs)) == want

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_cell_that_raises_ends_the_stream_there(self, jobs):
        # key order: (6, 1, 2, 2), (6, 2, 2, 2), then (7, 1, 2, -1), which
        # shares the first cell's column and raises
        reports = run_extremal_sweep(
            [(7, 1, 2, -1), (6, 2, 2, 2), (8, 2, 2, 2), (6, 1, 2, 2)], jobs=jobs
        )
        assert next(reports).cell == {"n": 6, "k": 1, "r": 2, "s": 2}
        assert next(reports).cell == {"n": 6, "k": 2, "r": 2, "s": 2}
        with pytest.raises(ValueError, match="must be positive"):
            next(reports)

    def test_fewer_vertices_than_r_rejected_before_any_walk(self, monkeypatch):
        def no_call(*args, **kwargs):
            raise AssertionError("a walk or a pool started")

        monkeypatch.setattr(verifier, "stable_with_matching_at_most", no_call)
        monkeypatch.setattr(verifier, "_pooled", no_call)
        with pytest.raises(ValueError, match=r"r <= n, got r=3, n=2"):
            verify_extremal_cell(2, 1, 3, 3)
        # the first cell in key order raises, and the (1, 5) column with
        # its long walk never starts
        reports = run_extremal_sweep([(2, 1, 3, 3), (10, 1, 5, 7)], jobs=2)
        with pytest.raises(ValueError, match=r"r <= n, got r=3, n=2"):
            next(reports)

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
