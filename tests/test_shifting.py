import random

import pytest
from hypothesis import example, given, settings

from conftest import (
    hosts,
    naive_downset_count,
    naive_stable_families,
    nu_at_most_from_scratch,
)
from hyperext.cliques import clique_census, count_cliques
from hyperext.core import (
    Budget,
    BudgetExceededError,
    Hypergraph,
    mask_from_labels,
    r_subsets,
)
from hyperext.extremal import build_extremal_family
from hyperext.matchings import matching_number
from hyperext.randgen import random_hypergraph
from hyperext.shifting import (
    enumerate_stable,
    is_stable,
    lift,
    maximal_edges,
    precedes,
    shift,
    stabilize,
    stable_closure_check,
)


class TestShift:
    def test_basic_replacement(self):
        h = Hypergraph.from_edges(4, 2, [(2, 4)])
        assert shift(h, 1, 4).edge_labels() == [(1, 2)]

    def test_blocked_when_target_present(self):
        h = Hypergraph.from_edges(4, 2, [(1, 2), (2, 4)])
        assert shift(h, 1, 4) == h

    def test_noop_when_j_absent_or_i_present(self):
        h = Hypergraph.from_edges(4, 2, [(1, 3)])
        assert shift(h, 2, 4) == h
        assert shift(h, 1, 3) == h

    def test_preserves_edge_count(self):
        rng = random.Random(20)
        for _ in range(60):
            h = random_hypergraph(rng, rng.randint(3, 9), rng.choice([2, 3]))
            for i in range(1, h.n):
                for j in range(i + 1, h.n + 1):
                    assert shift(h, i, j).edge_count == h.edge_count

    def test_never_decreases_clique_count(self):
        rng = random.Random(21)
        for _ in range(40):
            h = random_hypergraph(rng, 7, 2, 0.5)
            for s in (2, 3, 4):
                before = count_cliques(h, s).total
                for i in range(1, 7):
                    for j in range(i + 1, 8):
                        after = count_cliques(shift(h, i, j), s).total
                        assert after >= before

    def test_never_increases_matching_number(self):
        rng = random.Random(22)
        for _ in range(40):
            h = random_hypergraph(rng, 8, 3, 0.3)
            nu = matching_number(h)[0]
            for i in range(1, 8):
                for j in range(i + 1, 9):
                    assert matching_number(shift(h, i, j))[0] <= nu

    @settings(max_examples=150, deadline=None)
    @given(hosts())
    @example(Hypergraph(5, 2, ()))
    @example(Hypergraph.from_edges(4, 1, [(2,), (4,)]))
    def test_every_shift_keeps_edges_grows_census_keeps_nu(self, h):
        census = clique_census(h, h.n)
        nu = matching_number(h)[0]
        for i in range(1, h.n):
            for j in range(i + 1, h.n + 1):
                g = shift(h, i, j)
                assert g.edge_count == h.edge_count
                shifted = clique_census(g, h.n)
                assert all(shifted[s] >= census[s] for s in census)
                assert matching_number(g)[0] <= nu

    def test_rejects_bad_indices(self):
        h = Hypergraph.complete(4, 2)
        for i, j in [(0, 2), (2, 2), (3, 1), (1, 5)]:
            with pytest.raises(ValueError):
                shift(h, i, j)


class TestStabilize:
    def test_worked_example(self):
        h = Hypergraph.from_edges(3, 2, [(2, 3)])
        trace = stabilize(h)
        assert trace.result.edge_labels() == [(1, 2)]
        assert trace.applications == ((1, 2, 1), (2, 3, 1))
        assert trace.rounds == 2

    def test_fixpoint_is_stable_and_preserves_count(self):
        rng = random.Random(23)
        for _ in range(80):
            h = random_hypergraph(rng, rng.randint(3, 9), rng.choice([2, 3]))
            trace = stabilize(h)
            assert trace.result.edge_count == h.edge_count
            assert is_stable(trace.result)
            assert stabilize(trace.result).applications == ()

    def test_clique_counts_only_grow(self):
        rng = random.Random(24)
        for _ in range(40):
            h = random_hypergraph(rng, 8, 2, 0.4)
            res = stabilize(h).result
            for s in (2, 3, 4):
                assert (
                    count_cliques(res, s).total >= count_cliques(h, s).total
                )

    def test_matching_number_only_shrinks(self):
        rng = random.Random(25)
        for _ in range(40):
            h = random_hypergraph(rng, 8, 3, 0.3)
            res = stabilize(h).result
            assert matching_number(res)[0] <= matching_number(h)[0]

    def test_stable_input_records_nothing(self):
        h = build_extremal_family(8, 2, 3, 1)
        trace = stabilize(h)
        assert trace.applications == () and trace.result == h
        assert trace.rounds == 1


class TestStableChecks:
    def test_extremal_families_are_stable(self):
        for n, k, r, a in [(8, 2, 3, 1), (9, 2, 3, 2), (10, 3, 2, 1), (7, 1, 3, 3)]:
            h = build_extremal_family(n, k, r, a)
            assert is_stable(h)
            assert stable_closure_check(h)

    def test_shifted_up_edge_not_stable(self):
        h = Hypergraph.from_edges(4, 2, [(3, 4)])
        assert not is_stable(h)
        assert not stable_closure_check(h)

    def test_two_routes_agree_on_random_inputs(self):
        rng = random.Random(26)
        for _ in range(300):
            h = random_hypergraph(rng, rng.randint(2, 8), rng.randint(1, 3))
            assert is_stable(h) == stable_closure_check(h)

    def test_empty_and_complete_are_stable(self):
        assert is_stable(Hypergraph(5, 2, ()))
        assert is_stable(Hypergraph.complete(5, 3))


class TestPrecedes:
    def test_componentwise_examples(self):
        assert precedes(mask_from_labels([1, 3]), mask_from_labels([2, 4]))
        assert precedes(mask_from_labels([1, 3]), mask_from_labels([1, 3]))
        assert not precedes(mask_from_labels([2, 3]), mask_from_labels([1, 4]))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            precedes(mask_from_labels([1]), mask_from_labels([1, 2]))

    def test_partial_order_properties(self):
        rng = random.Random(27)
        elems = [
            mask_from_labels(rng.sample(range(1, 7), 3)) for _ in range(20)
        ]
        for x in elems:
            assert precedes(x, x)
            for y in elems:
                if precedes(x, y) and precedes(y, x):
                    assert x == y
                for z in elems:
                    if precedes(x, y) and precedes(y, z):
                        assert precedes(x, z)


class TestLift:
    @pytest.mark.parametrize("n, r", [(6, 1), (7, 2), (7, 3), (8, 3)])
    def test_largest_stable_family_with_the_trace(self, n, r):
        # the stable families on [n] grouped by their trace on [t]: the
        # union of a group is a downset with that trace, so the group has
        # one largest member
        for t in range(r, n + 1):
            span = (1 << t) - 1
            largest: dict[tuple[int, ...], tuple[int, ...]] = {}
            for h in enumerate_stable(n, r):
                trace = tuple([e for e in h.edges if not e & ~span])
                if len(h.edges) >= len(largest.get(trace, ())):
                    largest[trace] = h.edges
            assert len(largest) == sum(1 for _ in enumerate_stable(t, r))
            for trace, edges in largest.items():
                got = lift(Hypergraph._make(t, r, trace), n)
                assert (got.n, got.r, got.edges) == (n, r, edges)


STREAM_GRID = [(5, 1), (5, 2), (6, 2), (7, 2), (8, 2), (6, 3), (7, 3), (6, 4)]


def _assert_same_stream_as_oracle(n, r, pred):
    """Same families in the same order, maximal or not, and the same
    trip points for budgets of 1, 10 and 100 nodes: ``pred`` spends
    nothing, so the walk spends one node per family it reaches."""
    every = [h.edges for h in naive_stable_families(n, r, pred)]
    tops = [h.edges for h in naive_stable_families(n, r, pred, maximal=True)]
    for maximal, stream in [(False, every), (True, tops)]:
        got = [h.edges for h in enumerate_stable(n, r, pred, maximal=maximal)]
        assert got == stream
        for budget in (1, 10, 100):
            walk = enumerate_stable(n, r, pred, maximal=maximal, budget=Budget(budget))
            if len(every) <= budget:
                assert [h.edges for h in walk] == stream
                continue
            got = []
            with pytest.raises(BudgetExceededError) as info:
                for h in walk:
                    got.append(h.edges)
            assert str(info.value) == f"search budget exceeded after {budget} nodes"
            reached = set(every[:budget])
            assert got == [f for f in stream if f in reached]


class TestEnumerateStable:
    def test_tiny_counts_match_downset_oracle(self):
        for n, r in [(3, 2), (4, 2), (3, 3), (4, 3), (4, 1)]:
            got = sum(1 for _ in enumerate_stable(n, r))
            assert got == naive_downset_count(n, r)

    def test_graph_case_n3(self):
        fams = list(enumerate_stable(3, 2))
        assert len(fams) == 4
        assert {f.edges for f in fams} == {
            (),
            (mask_from_labels([1, 2]),),
            (mask_from_labels([1, 2]), mask_from_labels([1, 3])),
            tuple(Hypergraph.complete(3, 2).edges),
        }

    def test_everything_yielded_is_stable(self):
        for h in enumerate_stable(5, 2):
            assert is_stable(h)

    def test_predicate_prunes_consistently(self):
        def pred(h, e):
            grown = Hypergraph.from_edge_masks(5, 2, h.edges + (e,))
            return matching_number(grown)[0] <= 1

        filtered = {h.edges for h in enumerate_stable(5, 2, pred)}
        manual = {
            h.edges for h in enumerate_stable(5, 2) if matching_number(h)[0] <= 1
        }
        assert filtered == manual

    @pytest.mark.parametrize(
        "n, r, k",
        [
            (5, 2, None), (6, 2, 1), (6, 2, 2), (7, 2, 2),
            (6, 3, 1), (7, 3, 1), (6, 4, 1), (5, 1, 2),
        ],
    )
    def test_maximal_yields_the_maximal_members(self, n, r, k):
        pred = None if k is None else nu_at_most_from_scratch(k)
        every = [set(h.edges) for h in enumerate_stable(n, r, pred)]
        maximal = [
            sorted(f) for f in every if not any(f < g for g in every)
        ]
        got = [list(h.edges) for h in enumerate_stable(n, r, pred, maximal=True)]
        assert got == [f for f in map(sorted, every) if f in maximal]

    def test_maximal_edges_are_the_removable_ones(self):
        for h in enumerate_stable(5, 2):
            removable = [
                e
                for e in h.edges
                if stable_closure_check(
                    Hypergraph._make(5, 2, tuple(f for f in h.edges if f != e))
                )
            ]
            assert maximal_edges(h) == removable

    @pytest.mark.parametrize("n, r", STREAM_GRID)
    @pytest.mark.parametrize("k", [None, 1, 2])
    def test_same_stream_as_the_per_element_walk(self, n, r, k):
        pred = None if k is None else nu_at_most_from_scratch(k)
        _assert_same_stream_as_oracle(n, r, pred)

    @pytest.mark.parametrize("n, r", STREAM_GRID)
    def test_maximal_asks_every_skipped_element(self, n, r):
        # a family passes iff it holds no conflicting pair, which is closed
        # under sub-downsets; such a predicate can reject the newest skipped
        # element while it accepts an older one, which the ν predicates of
        # this grid never do
        elements = sorted(r_subsets(n, r))
        for seed in range(4):
            rng = random.Random(seed)
            conflicts = {
                frozenset(rng.sample(elements, 2))
                for _ in range(len(elements) // 2)
            }

            def pred(h, e):
                return all(frozenset((e, f)) not in conflicts for f in h.edges)

            _assert_same_stream_as_oracle(n, r, pred)

    def test_budget_error_carries_progress(self):
        with pytest.raises(BudgetExceededError, match="after 10 nodes"):
            for _ in enumerate_stable(5, 2, budget=Budget(10)):
                pass

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_stable(2, 3))
        with pytest.raises(ValueError):
            list(enumerate_stable(3, 0))
