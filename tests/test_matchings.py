import random

import pytest
from hypothesis import example, given, settings

from conftest import hosts, naive_matching_number
from hyperext.core import (
    Budget,
    BudgetExceededError,
    ColoredFamily,
    Hypergraph,
    degree,
    mask_from_labels,
)
from hyperext.extremal import binom, build_extremal_family
from hyperext.matchings import (
    find_rainbow_matching,
    greedy_matching_from_disjoint_tuples,
    greedy_matching_from_high_degree_vertices,
    has_matching_at_most,
    is_valid_matching,
    is_valid_rainbow_matching,
    matching_number,
)
from hyperext.randgen import random_hypergraph
from hyperext.shifting import enumerate_stable, shift


class TestMatchingNumber:
    def test_empty(self):
        nu, wit = matching_number(Hypergraph(4, 2, ()))
        assert nu == 0 and wit.edges == ()

    def test_disjoint_edges(self):
        h = Hypergraph.from_edges(9, 3, [(1, 2, 3), (4, 5, 6), (7, 8, 9)])
        nu, wit = matching_number(h)
        assert nu == 3
        assert is_valid_matching(h, wit)

    def test_level1_family(self):
        h = build_extremal_family(10, 2, 3, 1)
        nu, wit = matching_number(h)
        assert nu == 2
        assert is_valid_matching(h, wit)

    def test_equals_naive_oracle(self):
        rng = random.Random(10)
        done = 0
        while done < 120:
            n = rng.randint(4, 10)
            r = rng.randint(2, min(3, n))
            h = random_hypergraph(rng, n, r, rng.random() * 0.4)
            if h.edge_count > 12:
                continue
            done += 1
            nu, wit = matching_number(h)
            assert nu == naive_matching_number(h)
            assert is_valid_matching(h, wit) and len(wit) == nu

    def test_vertex_deletion_changes_nu_by_at_most_one(self):
        rng = random.Random(11)
        for _ in range(40):
            h = random_hypergraph(rng, 8, 2, 0.4)
            nu, _ = matching_number(h)
            for v in range(1, 9):
                from hyperext.core import delete_vertices

                nu_v, _ = matching_number(
                    delete_vertices(h, mask_from_labels([v]))
                )
                assert nu_v in (nu - 1, nu)

    def test_budget_exceeded_is_hard_error(self):
        h = Hypergraph.complete(9, 3)
        with pytest.raises(BudgetExceededError):
            matching_number(h, Budget(5))

    def test_budget_covers_every_round(self):
        # the star on [6]: round 1 takes 2 nodes, the failing round 2 takes 7
        h = build_extremal_family(6, 1, 2, 1)
        budget = Budget(9)
        assert matching_number(h, budget)[0] == 1
        assert budget.left == 0
        with pytest.raises(BudgetExceededError):
            matching_number(h, Budget(8))
        # has_matching_at_most spends from the budget it is handed
        budget = Budget(7)
        assert has_matching_at_most(h, 1, budget) and budget.left == 0
        with pytest.raises(BudgetExceededError):
            has_matching_at_most(h, 1, Budget(6))


class TestHasMatchingAtMost:
    def test_complete_graph_pigeonhole(self):
        for r, k in [(2, 1), (2, 2), (3, 1), (3, 2)]:
            h = Hypergraph.complete(r * k + r - 1, r)
            assert has_matching_at_most(h, k)
            assert not has_matching_at_most(h, k - 1)

    def test_disjoint_edges_exceed_bound(self):
        h = Hypergraph.from_edges(6, 2, [(1, 2), (3, 4), (5, 6)])
        assert not has_matching_at_most(h, 2)
        assert has_matching_at_most(h, 3)

    def test_extremal_family_respects_k(self):
        h = build_extremal_family(9, 2, 3, 2)
        assert has_matching_at_most(h, 2)

    def test_agrees_with_matching_number(self):
        rng = random.Random(12)
        for _ in range(60):
            h = random_hypergraph(rng, 8, 2, 0.5)
            nu, _ = matching_number(h)
            for k in range(0, 5):
                assert has_matching_at_most(h, k) == (nu <= k)


class TestOneSearch:
    """matching_number and has_matching_at_most share one search."""

    @settings(max_examples=150, deadline=None)
    @given(hosts(max_edges=12))
    @example(Hypergraph(5, 3, ()))  # ν = 0 > -1 = k on the empty host too
    @example(Hypergraph.from_edges(5, 1, [(2,), (5,)]))
    def test_both_routes_equal_oracle(self, h):
        nu, wit = matching_number(h)
        assert nu == naive_matching_number(h)
        assert is_valid_matching(h, wit) and len(wit) == nu
        for k in range(-1, nu + 2):
            assert has_matching_at_most(h, k) == (nu <= k)


class TestStableInput:
    """The search pivots on the top covered vertex, the least-degree
    vertex of a stable family; it must stay exact there."""

    @pytest.mark.parametrize("n, r", [(8, 2), (7, 3)])
    def test_every_stable_family_equals_oracle(self, n, r):
        checked = 0
        for h in enumerate_stable(n, r):
            nu = naive_matching_number(h)
            got, wit = matching_number(h)
            assert got == nu, h
            assert is_valid_matching(h, wit) and len(wit) == nu
            for j in range(-1, n // r + 1):
                assert has_matching_at_most(h, j) == (nu <= j), (h, j)
            checked += 1
        assert checked == {(8, 2): 128, (7, 3): 352}[n, r]


class TestShiftMonotonicity:
    def test_shift_never_increases_nu(self):
        rng = random.Random(13)
        for _ in range(60):
            h = random_hypergraph(rng, rng.randint(4, 8), rng.choice([2, 3]))
            nu, _ = matching_number(h)
            for i in range(1, h.n):
                for j in range(i + 1, h.n + 1):
                    assert matching_number(shift(h, i, j))[0] <= nu


class TestRainbow:
    def test_two_colors_disjoint(self):
        fam = ColoredFamily(
            4,
            2,
            (
                Hypergraph.from_edges(4, 2, [(1, 2)]),
                Hypergraph.from_edges(4, 2, [(3, 4)]),
            ),
        )
        rm = find_rainbow_matching(fam)
        assert rm is not None
        assert rm.picks == (
            (1, mask_from_labels([1, 2])),
            (2, mask_from_labels([3, 4])),
        )

    def test_two_copies_of_one_edge(self):
        member = Hypergraph.from_edges(4, 2, [(1, 2)])
        fam = ColoredFamily(4, 2, (member, member))
        assert find_rainbow_matching(fam) is None

    def test_single_color_any_edge(self):
        fam = ColoredFamily(5, 2, (Hypergraph.from_edges(5, 2, [(2, 5)]),))
        rm = find_rainbow_matching(fam)
        assert rm is not None and len(rm.picks) == 1

    def test_edge_threshold_guarantees_rainbow(self):
        # |F_i| > (k-1) C(n-1, r-1) with n >= rk forces a rainbow matching
        from hyperext.randgen import random_family_above_edge_threshold

        rng = random.Random(14)
        for _ in range(60):
            r = rng.choice([2, 3])
            k = rng.randint(2, 3)
            n = rng.randint(r * k, 10)
            fam = random_family_above_edge_threshold(rng, n, r, k)
            rm = find_rainbow_matching(fam)
            assert rm is not None
            assert is_valid_rainbow_matching(fam, rm)


class TestGreedyHighDegree:
    def test_complete_graph(self):
        h = Hypergraph.complete(9, 3)
        m = greedy_matching_from_high_degree_vertices(h, [1, 2, 3])
        assert m is not None and len(m) == 3
        assert is_valid_matching(h, m)

    def test_isolated_vertex_fails(self):
        h = Hypergraph.from_edges(6, 2, [(1, 2)])
        assert greedy_matching_from_high_degree_vertices(h, [1, 5]) is None

    def test_repeated_vertices_rejected(self):
        with pytest.raises(ValueError):
            greedy_matching_from_high_degree_vertices(
                Hypergraph.complete(4, 2), [1, 1]
            )

    def test_degree_hypothesis_makes_greedy_succeed(self):
        # deg(v_i) > 2(k-1) C(n-2, r-2) with rk <= n; n=10, r=3, k=2
        rng = random.Random(15)
        threshold = 2 * 1 * binom(8, 1)
        found = 0
        while found < 40:
            h = random_hypergraph(rng, 10, 3, 0.3 + rng.random() * 0.4)
            vs = [
                v
                for v in range(1, 11)
                if degree(h, mask_from_labels([v])) > threshold
            ]
            if len(vs) < 2:
                continue
            found += 1
            pick = rng.sample(vs, 2)
            m = greedy_matching_from_high_degree_vertices(h, pick)
            assert m is not None and len(m) == 2
            assert is_valid_matching(h, m)


class TestGreedyTuples:
    def test_single_tuple(self):
        h = Hypergraph.from_edges(5, 3, [(1, 2, 4)])
        m = greedy_matching_from_disjoint_tuples(h, [mask_from_labels([1, 2])])
        assert m is not None and m.edges == (mask_from_labels([1, 2, 4]),)

    def test_empty_neighborhoods(self):
        h = Hypergraph.from_edges(6, 3, [(4, 5, 6)])
        assert (
            greedy_matching_from_disjoint_tuples(h, [mask_from_labels([1, 2])])
            is None
        )

    def test_level2_family(self):
        h = build_extremal_family(12, 2, 3, 2)
        m = greedy_matching_from_disjoint_tuples(
            h, [mask_from_labels([1, 2]), mask_from_labels([3, 4])]
        )
        assert m is not None and len(m) == 2
        assert is_valid_matching(h, m)

    def test_overlapping_tuples_rejected(self):
        h = Hypergraph.complete(6, 3)
        with pytest.raises(ValueError):
            greedy_matching_from_disjoint_tuples(
                h, [mask_from_labels([1, 2]), mask_from_labels([2, 3])]
            )
