import random
import sys
from collections import Counter
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    avoiding,
    column_blocker_rule,
    enumerate_stable_pushing_every_child,
    hosts,
    lift_by_covers,
    naive_downset_count,
    naive_stable_families,
    nu_at_most_from_scratch,
    nu_blockers_from_scratch,
    nu_blockers_through,
    project,
    shift_by_edges,
    stabilize_by_shifts,
    stable_by_dominated_sets,
)
from hyperext import shifting
from hyperext.cliques import clique_census, count_cliques
from hyperext.core import (
    Budget,
    BudgetExceededError,
    Hypergraph,
    labels_from_mask,
    mask_from_labels,
    r_subsets,
)
from hyperext.extremal import build_extremal_family
from hyperext.matchings import matching_number
from hyperext.randgen import random_hypergraph
from hyperext.shifting import (
    colex_order,
    enumerate_stable,
    fibre,
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

    @settings(max_examples=100, deadline=None)
    @given(hosts())
    @example(Hypergraph(5, 2, ()))
    @example(Hypergraph.from_edges(4, 1, [(2,), (4,)]))
    @example(Hypergraph.complete(4, 4))
    def test_equals_the_per_edge_definition(self, h):
        for i in range(1, h.n):
            for j in range(i + 1, h.n + 1):
                assert shift(h, i, j) == shift_by_edges(h, i, j)

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

    @staticmethod
    def check_against_oracle(h):
        before = Hypergraph(h.n, h.r, h.edges)
        trace = stabilize(h)
        assert trace == stabilize_by_shifts(h)
        assert h == before
        res = trace.result
        assert Hypergraph.from_edge_masks(res.n, res.r, res.edges) == res

    @settings(max_examples=200, deadline=None)
    @given(hosts())
    @example(Hypergraph(6, 3, ()))
    @example(Hypergraph(1, 1, ()))
    @example(Hypergraph.from_edges(1, 1, [(1,)]))
    @example(Hypergraph.from_edges(7, 1, [(2,), (5,), (7,)]))
    @example(Hypergraph.complete(5, 5))
    @example(Hypergraph.from_edges(9, 9, [range(1, 10)]))
    def test_trace_equals_shift_by_shift(self, h):
        self.check_against_oracle(h)

    def test_trace_equals_shift_by_shift_on_toolkit_sized_hosts(self):
        # sized like the benchmark's stabilize calls: n 12..14, r = 3, p = 0.3
        rng = random.Random(28)
        for _ in range(200):
            self.check_against_oracle(
                random_hypergraph(rng, rng.randint(12, 14), 3, 0.3)
            )


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

    @given(h=hosts(), stabilized=st.booleans())
    @example(h=Hypergraph(5, 2, ()), stabilized=False)
    @example(h=Hypergraph.from_edges(4, 1, [(3,)]), stabilized=False)
    @example(h=Hypergraph.from_edges(4, 1, [(1,), (2,)]), stabilized=False)
    @example(h=Hypergraph.complete(6, 6), stabilized=False)
    @example(h=Hypergraph(6, 6, ()), stabilized=False)
    def test_covers_check_matches_the_full_definition(self, h, stabilized):
        if stabilized:
            h = stabilize(h).result
        assert stable_closure_check(h) == stable_by_dominated_sets(h)

    def test_wide_family_asks_one_covers_per_edge(self, monkeypatch):
        # complete(16, 8) has 12,870 edges, and all of them lie below its
        # top edge; the check lists only each edge's covers, once
        asked = []
        covers = shifting._covers

        def spy(e):
            asked.append(e)
            return covers(e)

        monkeypatch.setattr(shifting, "_covers", spy)
        h = Hypergraph.complete(16, 8)
        assert stable_closure_check(h)
        assert asked == list(h.edges)
        # without [8], the first edge asked, [9] minus 8, misses a cover
        asked.clear()
        assert not stable_closure_check(Hypergraph._make(16, 8, h.edges[1:]))
        assert asked == [h.edges[1]] == [mask_from_labels([1, 2, 3, 4, 5, 6, 7, 9])]

    def test_edge_wider_than_the_recursion_limit(self):
        # one edge [n], n labels wide: neither check recurses per label
        n = sys.getrecursionlimit() + 100
        h = Hypergraph.complete(n, n)
        assert is_stable(h)
        assert stable_closure_check(h)


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
            for h in naive_stable_families(n, r):
                trace = tuple([e for e in h.edges if not e & ~span])
                if len(h.edges) >= len(largest.get(trace, ())):
                    largest[trace] = h.edges
            assert len(largest) == sum(1 for _ in naive_stable_families(t, r))
            for trace, edges in largest.items():
                got = lift(Hypergraph._make(t, r, trace), n)
                assert (got.n, got.r, got.edges) == (n, r, edges)

    @pytest.mark.parametrize(
        "t, r", [(3, 1), (4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (6, 4)]
    )
    def test_fibres_equal_the_cover_test(self, t, r):
        families = list(naive_stable_families(t, r))
        for n in range(t, t + 4):
            for g in families:
                assert lift(g, n) == lift_by_covers(g, n), (g, n)

    def test_fewer_vertices_than_the_trace_rejected(self):
        # a family on [4] cannot hold the edges of K_6 through vertex 6
        with pytest.raises(ValueError, match="t <= n"):
            lift(Hypergraph.complete(6, 2), 4)


class TestFibre:
    """The fibres π⁻¹(f) of the r-sets f of [t], against π itself, the
    oracle ``project``."""

    @pytest.mark.parametrize("r", range(1, 9))
    def test_fibres_partition_the_r_sets_of_n(self, r):
        # t = r included: the one r-set of [t] is a run down to vertex 1
        for t in range(r, 9):
            span = sorted(r_subsets(t, r))
            for n in range(t, t + 5):
                fibres = {f: list(fibre(f, t, n)) for f in span}
                members = [e for part in fibres.values() for e in part]
                # disjoint, and together every r-set of [n]
                assert sorted(members) == sorted(r_subsets(n, r)), (t, n)
                for f, part in fibres.items():
                    assert all(project(e, t) == f for e in part), (f, t, n)
                for e in r_subsets(n, r):
                    assert e in fibres[project(e, t)], (e, t, n)


class TestProject:
    @pytest.mark.parametrize("n, r", [(5, 1), (6, 2), (7, 2), (7, 3), (8, 3), (8, 4)])
    def test_lowers_keeps_precedence_and_fixes_the_span(self, n, r):
        universe = sorted(r_subsets(n, r))
        for t in range(r, n + 1):
            image = {e: project(e, t) for e in universe}
            for e, f in image.items():
                # the definition: the i-th vertex becomes min(e_i, t - r + i)
                want = mask_from_labels(
                    [
                        min(x, t - r + i)
                        for i, x in enumerate(labels_from_mask(e), start=1)
                    ]
                )
                assert f == want and f.bit_count() == r and not f >> t
                assert precedes(f, e)
                if not e >> t:
                    assert f == e
            for x in universe:
                for y in universe:
                    if precedes(x, y):
                        assert precedes(image[x], image[y]), (x, y, t)


class TestColexOrder:
    """The one index of ≺ against ``precedes``, the definition."""

    @pytest.mark.parametrize(
        "n, r", [(n, r) for n in range(1, 8) for r in range(1, n + 1)]
    )
    def test_index_matches_precedes(self, n, r):
        elements, position, below, up, down, above = colex_order(n, r)
        assert elements == sorted(r_subsets(n, r))
        assert position == {e: i for i, e in enumerate(elements)}
        size = len(elements)
        le = [[precedes(a, b) for b in elements] for a in elements]
        for i in range(size):
            for j in range(size):
                # bit j of down[i]: elements[j] ≺ elements[i]
                assert (down[i] >> j & 1) == le[j][i]
                assert (above[j] >> i & 1) == (down[i] >> j & 1)
                covers = le[j][i] and j != i and not any(
                    le[j][m] and le[m][i] for m in range(size) if m not in (i, j)
                )
                assert (below[i] >> j & 1) == covers
        assert all(0 <= b < 1 << size for b in down + above + below)
        for j in range(size):
            assert up[j] == [i for i in range(size) if below[i] >> j & 1]


STREAM_GRID = [(5, 1), (5, 2), (6, 2), (7, 2), (8, 2), (6, 3), (7, 3), (6, 4)]


def _no_blockers(e):
    return ()


def _walk(n, r, blockers, walk=enumerate_stable):
    """The stream of ``walk`` and the budget nodes it spends."""
    budget = Budget(10**9)
    stream = [h.edges for h in walk(n, r, blockers, budget=budget)]
    return stream, budget.limit - budget.left


def _column_walks(monkeypatch, k, r):
    """The verifier's walk on [r(k+1)] for ν <= k, as ``_walk`` gives it,
    from ``enumerate_stable`` and from the walk that pushes every child,
    both handed the verifier's own blocker rule."""
    t = r * (k + 1)
    blockers = column_blocker_rule(monkeypatch, r, k)
    return (
        _walk(t, r, blockers),
        _walk(t, r, blockers, enumerate_stable_pushing_every_child),
    )


def _assert_same_stream_as_oracle(n, r, blockers):
    """The maximal families of the per-element walk, in its order.  The
    walk spends one node per family it reaches and skips subtrees
    without a maximal family; it trips a budget exactly when that is
    below the nodes the walk spends, having yielded a prefix of its
    stream."""
    tops = [
        h.edges
        for h in naive_stable_families(n, r, avoiding(blockers), maximal=True)
    ]
    got, spent = _walk(n, r, blockers)
    assert got == tops
    for budget in sorted({1, 10, 100, spent - 1, spent} - {0}):
        walk = enumerate_stable(n, r, blockers, budget=Budget(budget))
        if budget >= spent:
            assert [h.edges for h in walk] == tops
            continue
        got = []
        with pytest.raises(BudgetExceededError) as info:
            for h in walk:
                got.append(h.edges)
        assert str(info.value) == f"search budget exceeded after {budget} nodes"
        assert got == tops[: len(got)]


def _conflict_blockers(n, r, seed):
    """A family passes iff it holds no pair from a random set of
    conflicting pairs: e's blocker sets are the r-sets that conflict
    with it, one to a set."""
    elements = sorted(r_subsets(n, r))
    rng = random.Random(seed)
    conflicts = {
        frozenset(rng.sample(elements, 2)) for _ in range(len(elements) // 2)
    }

    def blockers(e):
        return [(f,) for f in elements if frozenset((e, f)) in conflicts]

    return blockers


def _random_blockers(n, r, seed):
    """Each r-set gets up to two blocker sets of one to three random
    r-sets of [n], drawn from all of them: a set may hold r-sets after
    its own, so it can complete once that r-set is in the family."""
    elements = sorted(r_subsets(n, r))
    rng = random.Random(seed)
    rule = {
        e: [
            tuple(rng.sample(elements, rng.randint(1, 3)))
            for _ in range(rng.randint(0, 2))
        ]
        for e in elements
    }
    return rule.__getitem__


class TestEnumerateStable:
    def test_tiny_counts_match_downset_oracle(self):
        # the per-element walk the maximal walk is checked against
        for n, r in [(3, 2), (4, 2), (3, 3), (4, 3), (4, 1)]:
            got = sum(1 for _ in naive_stable_families(n, r))
            assert got == naive_downset_count(n, r)

    def test_graph_case_n3(self):
        fams = list(naive_stable_families(3, 2))
        assert len(fams) == 4
        assert {f.edges for f in fams} == {
            (),
            (mask_from_labels([1, 2]),),
            (mask_from_labels([1, 2]), mask_from_labels([1, 3])),
            tuple(Hypergraph.complete(3, 2).edges),
        }
        assert list(enumerate_stable(3, 2, _no_blockers)) == [
            Hypergraph.complete(3, 2)
        ]

    def test_everything_yielded_is_stable(self):
        rules = [nu_blockers_from_scratch(6, 2, 1), nu_blockers_through(6, 2, 2)]
        rules += [_conflict_blockers(6, 2, seed) for seed in range(4)]
        for blockers in rules:
            for h in enumerate_stable(6, 2, blockers):
                assert is_stable(h)

    def test_predicate_prunes_consistently(self):
        direct = [
            set(h.edges)
            for h in naive_stable_families(5, 2)
            if matching_number(h)[0] <= 1
        ]
        tops = [f for f in direct if not any(f < g for g in direct)]
        got = enumerate_stable(5, 2, nu_blockers_from_scratch(5, 2, 1))
        assert [set(h.edges) for h in got] == tops

    @pytest.mark.parametrize(
        "n, r, k",
        [
            (5, 2, None), (6, 2, 1), (6, 2, 2), (7, 2, 2),
            (6, 3, 1), (7, 3, 1), (6, 4, 1), (5, 1, 2),
        ],
    )
    def test_maximal_yields_the_maximal_members(self, n, r, k):
        if k is None:
            pred, blockers = None, _no_blockers
        else:
            pred = nu_at_most_from_scratch(k)
            blockers = nu_blockers_from_scratch(n, r, k)
        every = [set(h.edges) for h in naive_stable_families(n, r, pred)]
        maximal = [
            sorted(f) for f in every if not any(f < g for g in every)
        ]
        got = [list(h.edges) for h in enumerate_stable(n, r, blockers)]
        assert got == [f for f in map(sorted, every) if f in maximal]

    def test_maximal_edges_are_the_removable_ones(self):
        for h in naive_stable_families(5, 2):
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
        if k is None:
            _assert_same_stream_as_oracle(n, r, _no_blockers)
        else:
            _assert_same_stream_as_oracle(n, r, nu_blockers_from_scratch(n, r, k))

    @pytest.mark.parametrize("n, r", STREAM_GRID)
    @pytest.mark.parametrize("k", [1, 2])
    def test_same_stream_with_the_verifiers_nu_predicate(self, n, r, k):
        # it lets e join some families with ν > k, where the from-scratch
        # test does not, so the walk prunes other subtrees
        _assert_same_stream_as_oracle(n, r, nu_blockers_through(n, r, k))

    @pytest.mark.parametrize("n, r", STREAM_GRID)
    def test_maximal_asks_every_skipped_element(self, n, r):
        # a conflict rule can reject the newest skipped element while it
        # accepts an older one, which the ν rules of this grid never do
        for seed in range(4):
            _assert_same_stream_as_oracle(n, r, _conflict_blockers(n, r, seed))

    @pytest.mark.parametrize("n, r", STREAM_GRID)
    def test_random_blocker_rules_give_the_per_element_stream(self, n, r):
        # a family blocks an r-set y by a set p only if p's colex-last
        # r-set comes before y; a set that completes after y, once y is
        # in the family, must not take y out of the walk's upper bound
        later = 0
        for seed in range(10):
            blockers = _random_blockers(n, r, seed)
            later += sum(
                max(p) > e for e in r_subsets(n, r) for p in blockers(e)
            )
            _assert_same_stream_as_oracle(n, r, blockers)
        assert later

    @pytest.mark.parametrize("n, r", STREAM_GRID)
    def test_maximal_walk_reaches_no_more_than_the_full_walk(self, n, r):
        rules = [_no_blockers]
        rules += [nu_blockers_from_scratch(n, r, k) for k in (1, 2)]
        rules += [nu_blockers_through(n, r, k) for k in (1, 2)]
        rules += [_conflict_blockers(n, r, seed) for seed in range(4)]
        rules += [_random_blockers(n, r, seed) for seed in range(4)]
        for blockers in rules:
            every = sum(1 for _ in naive_stable_families(n, r, avoiding(blockers)))
            spent = _walk(n, r, blockers)[1]
            assert spent <= every
            oracle = enumerate_stable_pushing_every_child
            assert spent <= _walk(n, r, blockers, oracle)[1]

    @pytest.mark.parametrize("n, r", STREAM_GRID)
    def test_blockers_asked_at_most_once_per_r_set(self, n, r):
        # the walk keeps each r-set's blocker sets for the whole walk, however
        # many of the families it reaches ask about that r-set; it asks
        # about every r-set once, in colex order, before its first family
        colex = sorted(r_subsets(n, r))
        rules = [nu_blockers_from_scratch(n, r, 1), nu_blockers_through(n, r, 2)]
        rules += [_conflict_blockers(n, r, seed) for seed in range(2)]
        for blockers in rules:
            asked = Counter()

            def counted(e, blockers=blockers):
                asked[e] += 1
                return blockers(e)

            walk = enumerate_stable(n, r, counted)
            assert not asked
            next(walk)
            assert list(asked) == colex and set(asked.values()) == {1}
            walk.close()
            asked.clear()
            assert _walk(n, r, counted) == _walk(n, r, blockers)
            assert asked and max(asked.values()) == 1
            assert list(asked) == colex and set(asked.values()) == {1}

    @pytest.mark.parametrize("n, r", [(4, 2), (5, 2), (5, 3)])
    def test_repeated_mask_in_a_blocker_set_counts_once(self, n, r):
        # (x, x) is the set {x}: one r-set y is kept out by x alone.  Summed
        # as integers, the two bits of x once carried into the next index
        elements = sorted(r_subsets(n, r))
        for x in elements:
            for y in elements:
                once, twice = ((x,),), ((x, x),)
                assert _walk(n, r, lambda e: twice if e == y else ()) == _walk(
                    n, r, lambda e: once if e == y else ()
                )

    @pytest.mark.parametrize(
        "k, r", [(1, 2), (2, 2), (3, 2), (5, 2), (1, 3), (2, 3), (1, 4)]
    )
    def test_same_column_stream_as_pushing_every_child(self, monkeypatch, k, r):
        # a child is left out only where it would be cut when popped
        (stream, spent), (every, spent_every) = _column_walks(monkeypatch, k, r)
        assert stream == every and spent <= spent_every

    @pytest.mark.parametrize(
        "r, k, maximal, reached, reached_pushing_every_child",
        [(3, 2, 68, 906, 2761), (4, 1, 72, 812, 1220), (2, 5, 6, 236, 344),
         (3, 1, 6, 28, 33)],
    )
    def test_families_reached_on_a_column(
        self, monkeypatch, r, k, maximal, reached, reached_pushing_every_child
    ):
        (stream, spent), (_, spent_every) = _column_walks(monkeypatch, k, r)
        assert (len(stream), spent) == (maximal, reached)
        assert spent_every == reached_pushing_every_child

    def test_frontier_column_prefix_equals_pushing_every_child(self, monkeypatch):
        # [12] for (3, 3): the first 100 maximal families, and the
        # families each walk reaches to yield them
        blockers = column_blocker_rule(monkeypatch, 3, 3)
        prefixes = []
        for walk in (enumerate_stable, enumerate_stable_pushing_every_child):
            budget = Budget(10**9)
            stream = islice(walk(12, 3, blockers, budget=budget), 100)
            prefixes.append(([h.edges for h in stream], budget.limit - budget.left))
        (tops, spent), (oracle_tops, oracle_spent) = prefixes
        assert len(tops) == 100 and tops == oracle_tops
        assert (spent, oracle_spent) == (4951, 33241)

    def test_maximal_walk_on_the_span_reaches_906_of_11720_families(self):
        # ν <= 2 on [9] = [r(k+1)], r = 3.  The verifier's rule lets e join
        # the upper bound of a node even where that has ν > 2, so it
        # prunes more than the from-scratch test, which rejects there
        scratch = nu_blockers_from_scratch(9, 3, 2)
        tops, spent = _walk(9, 3, nu_blockers_through(9, 3, 2))
        assert (len(tops), spent) == (68, 906)
        assert _walk(9, 3, scratch) == (tops, 1096)
        pushing_every = _walk(9, 3, scratch, enumerate_stable_pushing_every_child)
        assert pushing_every == (tops, 3509)
        every = naive_stable_families(9, 3, nu_at_most_from_scratch(2))
        assert sum(1 for _ in every) == 11720

    def test_budget_error_carries_progress(self):
        with pytest.raises(BudgetExceededError, match="after 10 nodes"):
            for _ in enumerate_stable(5, 2, _no_blockers, budget=Budget(10)):
                pass

    def test_walk_deeper_than_the_recursion_limit(self):
        # r = 1: the families are the chains {1..i}, and the walk reaches
        # all 1,201 of them, one below the other, to yield [1200]
        stream, spent = _walk(1200, 1, _no_blockers)
        assert stream == [tuple(1 << i for i in range(1200))]
        assert spent == 1201

    @pytest.mark.parametrize("mask", [1 << 7 | 1, 0b111, 0])
    def test_blocker_set_holding_no_r_set_rejected(self, mask):
        # asked first about {1, 2} = 3; 129 = {1, 8} lies outside [4]
        with pytest.raises(ValueError, match=rf"blockers\(3\) lists {mask}, not a 2-set of \[4\]"):
            list(enumerate_stable(4, 2, lambda e: [(mask,)]))

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_stable(2, 3, _no_blockers))
        with pytest.raises(ValueError):
            list(enumerate_stable(3, 0, _no_blockers))
