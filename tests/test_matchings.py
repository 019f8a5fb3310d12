import gc
import hashlib
import random
import sys
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import example, given, settings

from conftest import (
    colored_families,
    find_matching_recursive,
    hosts,
    matching_number_by_rounds,
    naive_matching_number,
    naive_stable_families,
    perfbench_module,
    rainbow_matching_plain,
)
from hyperext.core import (
    Budget,
    BudgetExceededError,
    ColoredFamily,
    Hypergraph,
    degree,
    mask_from_labels,
    r_subsets,
)
from hyperext.extremal import binom, build_extremal_family
from hyperext.matchings import (
    Matching,
    RainbowMatching,
    find_matching,
    find_rainbow_matching,
    greedy_matching_from_disjoint_tuples,
    greedy_matching_from_high_degree_vertices,
    has_matching_at_most,
    is_valid_matching,
    is_valid_rainbow_matching,
    matching_number,
    perfect_matching_patterns,
)
from hyperext.randgen import random_hypergraph
from hyperext.shifting import precedes, shift


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

    def test_budget_covers_the_whole_search(self):
        # the star on [6]: the root, then one pick and one drop for each
        # of the vertices 6, 5 and 4 (matching_number_by_rounds spends
        # 2 + 7 = 9)
        h = build_extremal_family(6, 1, 2, 1)
        budget = Budget(7)
        assert matching_number(h, budget)[0] == 1
        assert budget.left == 0
        with pytest.raises(BudgetExceededError):
            matching_number(h, Budget(6))
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
    """find_matching is the one search; matching_number and
    has_matching_at_most wrap it."""

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
        for size in range(nu + 2):
            found = find_matching(h, size)
            if size > nu:
                assert found is None
            else:
                assert is_valid_matching(h, found) and len(found) == size
        assert find_matching(h, nu) == wit

    def test_find_matching_spends_the_budget_it_is_handed(self):
        # the star on [6]: one edge in 2 nodes, two edges fail in 7
        h = build_extremal_family(6, 1, 2, 1)
        budget = Budget(9)
        assert len(find_matching(h, 1, budget)) == 1
        assert find_matching(h, 2, budget) is None and budget.left == 0
        with pytest.raises(BudgetExceededError):
            find_matching(h, 2, Budget(6))


class CountingBudget(Budget):
    """An unlimited budget that counts the nodes spent from it."""

    def __init__(self):
        super().__init__()
        self.spent = 0

    def spend(self) -> None:
        self.spent += 1


def assert_search_equals_recursion(h: Hypergraph) -> int:
    """For every size 0..ν+1, the same matching and the same node count as
    the recursive search; ``matching_number`` gives the ν and the witness
    of one search per target size.  Returns the nodes it spent."""
    one = CountingBudget()
    nu, wit = matching_number(h, one)
    assert (nu, wit) == matching_number_by_rounds(h)
    for size in range(nu + 2):
        ours, theirs = CountingBudget(), CountingBudget()
        found = find_matching(h, size, ours)
        want = find_matching_recursive(list(h.edges), size, h.r, theirs)
        assert found == (None if want is None else Matching(tuple(reversed(want))))
        assert ours.spent == theirs.spent
    assert wit == find_matching(h, nu)
    return one.spent


class TestStackSearch:
    """The ν search is a stack of nodes in the recursion's order."""

    @settings(max_examples=200, deadline=None)
    @given(hosts())
    @example(Hypergraph(5, 3, ()))
    @example(Hypergraph.complete(9, 1))
    @example(Hypergraph.complete(9, 3))
    def test_equals_the_recursion(self, h):
        assert_search_equals_recursion(h)

    def test_equals_the_recursion_on_toolkit_sized_hosts(self):
        rng = random.Random(19)
        spent = 0
        for _ in range(100):
            h = random_hypergraph(rng, rng.randint(26, 30), 3, 0.018)
            spent += assert_search_equals_recursion(h)
        # matching_number_by_rounds spends 36,711 nodes on these hosts
        assert spent == 34_780

    def test_star_deeper_than_the_recursion_limit(self):
        n = sys.getrecursionlimit() + 100
        star = Hypergraph.from_edges(n, 2, [(1, v) for v in range(2, n + 1)])
        assert has_matching_at_most(star, 1)
        assert matching_number(star)[0] == 1

    def test_matching_deeper_than_the_recursion_limit(self):
        n = sys.getrecursionlimit() + 100
        h = Hypergraph.complete(n, 1)
        assert sorted(find_matching(h, n).edges) == list(h.edges)

    def test_matching_number_deeper_than_the_recursion_limit(self):
        # matching_number_by_rounds takes about 100 s here at n = 1,100
        n = sys.getrecursionlimit() + 100
        h = Hypergraph.complete(n, 1)
        nu, wit = matching_number(h)
        assert nu == n and sorted(wit.edges) == list(h.edges)


class TestStableInput:
    """The search pivots on the top covered vertex, the least-degree
    vertex of a stable family; it must stay exact there."""

    @pytest.mark.parametrize("n, r", [(8, 2), (7, 3)])
    def test_every_stable_family_equals_oracle(self, n, r):
        checked = 0
        for h in naive_stable_families(n, r):
            nu = naive_matching_number(h)
            got, wit = matching_number(h)
            assert got == nu, h
            assert is_valid_matching(h, wit) and len(wit) == nu
            for j in range(-1, n // r + 1):
                assert has_matching_at_most(h, j) == (nu <= j), (h, j)
            checked += 1
        assert checked == {(8, 2): 128, (7, 3): 352}[n, r]


def _downclosure(edges, universe) -> frozenset[int]:
    return frozenset(x for x in universe if any(precedes(x, e) for e in edges))


def _maximal(family) -> frozenset[int]:
    return frozenset(
        x for x in family if not any(y != x and precedes(x, y) for y in family)
    )


class TestPerfectMatchingPatterns:
    """Each pattern against every perfect matching of [rk], by the
    definition of ≺ alone."""

    @pytest.mark.parametrize(
        "r, k, count",
        [
            (1, 0, 1), (1, 1, 1), (1, 4, 1), (2, 0, 1), (2, 1, 1), (2, 3, 1),
            (2, 4, 1), (3, 0, 1), (3, 1, 1), (5, 1, 1), (3, 2, 5), (4, 2, 21),
            (3, 3, 52), (5, 2, 84),
        ],
    )
    def test_patterns_are_the_least_perfect_matching_downsets(self, r, k, count):
        universe = sorted(r_subsets(r * k, r))
        closures = {
            _downclosure(m, universe)
            for m in combinations(universe, k)
            if reduce(or_, m, 0) == (1 << r * k) - 1
        }
        least = {d for d in closures if not any(c < d for c in closures)}
        patterns = perfect_matching_patterns(r, k)
        assert len(patterns) == count == len(least)
        assert len(set(patterns)) == count
        for p in patterns:
            assert list(p) == sorted(p) and len(set(p)) == len(p)
            # the ≺-maximal edges of its own downclosure
            assert frozenset(p) == _maximal(_downclosure(p, universe))
        # which is a perfect matching's; none holds another's, and every
        # perfect matching's downclosure holds one
        assert {_downclosure(p, universe) for p in patterns} == least

    @pytest.mark.parametrize(
        "r, k, count, digest",
        [
            (3, 4, 880, "9406cc73a7ba57576df37ae0664a416cbc7370f2ed65713ea0a7beede7e9c651"),
            (4, 3, 1658, "b2577b0f3ad6c6fe2019e06beed3abb69f6d8e9d20aca055dec60a16a7d11882"),
            (2, 10, 1, "81213f5743f4aba1dbaaf83b908ef59479d9a0c86e37a02dd53e6ad556d70422"),
            (1, 0, 1, "6af22f1bc2d94295cb210c6a0734b0d7459c92909665da49d949785ecea55bf8"),
            (1, 1, 1, "8349bb5d2d44e8d655364829a2ce742165d10f6cb3966ecc05e35fb83ab9f28c"),
            (1, 4, 1, "2d9dd037e7313b65cccd221c129650cc754c8097bf71b74ceb215cc221c05868"),
            (2, 0, 1, "6af22f1bc2d94295cb210c6a0734b0d7459c92909665da49d949785ecea55bf8"),
            (2, 1, 1, "f22f1e2ecd4e0ee531ef5bbd4d6dfd81c05d0f489b7dd6770e47e5f7ca2aea78"),
            (2, 3, 1, "5480020a20801c02b4e1019868854e5f004280da0c77d32202ea12f8c035033f"),
            (2, 4, 1, "d012a9efa315e2e3cf38761f830c1c8c76ba295d37b625c8d7a429028bbed4a6"),
            (3, 0, 1, "6af22f1bc2d94295cb210c6a0734b0d7459c92909665da49d949785ecea55bf8"),
            (3, 1, 1, "bc82d11acb216169494b70249f4108e96117cae089aab8b768f133215305c207"),
            (5, 1, 1, "84398b9036afc58b49c2560cfb4e8aa9908f8486944a7ad73f917fc9efa9808a"),
            (3, 2, 5, "e6c28f2acd8c5aa943eb2839c1db84945c9b79182113353947ca650f319ca72e"),
            (4, 2, 21, "3219b5c6f08a2a3e95228644cfe8e8e9f22b3e8904812eb6615fc1fda57d566e"),
            (3, 3, 52, "c81f59261f7e8e94e8067a93c3553a1581518b0ad0ba8f835573098724dd9544"),
            (5, 2, 84, "1a4d5a6fa0fa014341061fab07899766551cfeb98414097034431b29f3a255be"),
        ],
    )
    def test_table_pinned_by_digest(self, r, k, count, digest):
        # sha256 of the repr of the whole table, as built when the
        # pattern generator kept its own index of the r-sets of [rk];
        # (3, 4), (4, 3) and (2, 10) are too large for the definition above
        patterns = perfect_matching_patterns(r, k)
        assert len(patterns) == count
        assert hashlib.sha256(repr(patterns).encode()).hexdigest() == digest

    def test_bad_arguments_rejected(self):
        for r, k in [(0, 1), (2, -1)]:
            with pytest.raises(ValueError):
                perfect_matching_patterns(r, k)

    def test_build_leaves_no_reference_cycle(self):
        perfect_matching_patterns.cache_clear()
        gc.collect()
        gc.disable()
        try:
            assert len(perfect_matching_patterns(3, 3)) == 52
            assert gc.collect() == 0
        finally:
            gc.enable()


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


def boundary_family(n: int, k: int, r: int) -> ColoredFamily:
    """k copies of F_{n,k-1,1}: their union has ν <= k-1, so there is no
    rainbow matching and the search must exhaust."""
    return ColoredFamily(n, r, (build_extremal_family(n, k - 1, r, 1),) * k)


class CountingEdges(tuple):
    """An edge tuple that counts, in ``passes``, each time it is iterated."""

    passes = 0

    def __iter__(self):
        CountingEdges.passes += 1
        return super().__iter__()


def rainbow_level_entries(
    fam: ColoredFamily,
) -> tuple[RainbowMatching | None, int]:
    """``find_rainbow_matching(fam)`` and the number of levels it entered.

    Each member's edges are a ``CountingEdges``.  The search passes over
    a level's edges once per entry, and once per colour to build the
    vertices the levels from it on could cover, so the entries are the
    passes less k.
    """
    members = [
        Hypergraph(h.n, h.r, CountingEdges(h.edges)) for h in fam.members
    ]
    counted = ColoredFamily(fam.n, fam.r, tuple(members))
    CountingEdges.passes = 0
    rm = find_rainbow_matching(counted)
    return rm, CountingEdges.passes - fam.k


class TestRainbowMemo:
    """The memoised rainbow search returns what plain backtracking does."""

    @settings(max_examples=300, deadline=None)
    @given(colored_families())
    @example(ColoredFamily(3, 1, (Hypergraph(3, 1, ()),)))
    @example(ColoredFamily(3, 1, (Hypergraph.complete(3, 1),)))
    @example(ColoredFamily(4, 2, (Hypergraph.complete(4, 2),) * 3))
    @example(ColoredFamily(4, 2, (Hypergraph.complete(4, 2), Hypergraph(4, 2, ()))))
    # a key refuted at one level may hold at another: {4, 5} is refuted
    # for the last two colours, and the last colour alone avoids it with 3
    @example(
        ColoredFamily(
            7,
            1,
            tuple(
                Hypergraph.from_edges(7, 1, [(v,) for v in vs])
                for vs in ((5, 6), (4, 5), (3, 4, 5), (4, 5))
            ),
        )
    )
    def test_equals_the_plain_search(self, fam):
        assert find_rainbow_matching(fam) == rainbow_matching_plain(fam)

    def test_equals_the_plain_search_on_toolkit_families(self):
        toolkit = perfbench_module("toolkit")
        for seed in (1, 2, 3):
            for kind, args in toolkit.generate(seed):
                if kind == "rainbow":
                    fam, planted = args
                    rm = find_rainbow_matching(fam)
                    assert rm == rainbow_matching_plain(fam)
                    assert (rm is not None) == planted

    @pytest.mark.parametrize("n, k, r", [(9, 3, 3), (12, 4, 3), (12, 5, 2)])
    def test_boundary_families_have_none(self, n, k, r):
        fam = boundary_family(n, k, r)
        assert find_rainbow_matching(fam) is None
        assert rainbow_matching_plain(fam) is None

    def test_node_count_on_an_unplanted_toolkit_family(self):
        toolkit = perfbench_module("toolkit")
        fam = next(
            args[0]
            for kind, args in toolkit.generate(1)
            if kind == "rainbow" and not args[1]
        )
        plain = CountingBudget()
        rm, entries = rainbow_level_entries(fam)
        assert rm is None
        assert rainbow_matching_plain(fam, plain) is None
        assert (entries, plain.spent) == (455, 1934)

    def test_key_drops_vertices_no_later_colour_covers(self):
        # each pick of the first colour uses 9 and one of 1, 2, 3, which
        # the two stars on {5, ..., 8} never cover: one refutation serves
        # all three picks
        star = Hypergraph.from_edges(9, 2, [(5, 6), (5, 7), (5, 8)])
        first = Hypergraph.from_edges(9, 2, [(1, 9), (2, 9), (3, 9)])
        plain = CountingBudget()
        fam = ColoredFamily(9, 2, (first, star, star))
        rm, entries = rainbow_level_entries(fam)
        assert rm is None
        assert rainbow_matching_plain(fam, plain) is None
        assert (entries, plain.spent) == (5, 13)

    def test_boundary_cell_past_the_plain_search(self):
        # the memo enters 4,096 levels; the plain search takes 23,604,484
        # nodes, one per level entered
        limit = 100_000
        with pytest.raises(BudgetExceededError):
            rainbow_matching_plain(boundary_family(14, 7, 2), Budget(limit))
        rm, entries = rainbow_level_entries(boundary_family(14, 7, 2))
        assert rm is None and entries < limit

    def test_colours_past_the_recursion_limit(self):
        # the search once recursed once per colour
        n = sys.getrecursionlimit() + 100
        fam = ColoredFamily(n, 1, (Hypergraph.complete(n, 1),) * n)
        rm = find_rainbow_matching(fam)
        assert rm is not None and is_valid_rainbow_matching(fam, rm)
        assert rm.picks == tuple((c, 1 << (c - 1)) for c in range(1, n + 1))


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

    @pytest.mark.parametrize("label", [0, -1, 6, 9])
    def test_label_outside_the_vertex_set_rejected(self, label):
        # 0 and below once raised "negative shift count"; 6 and above
        # once returned None, as if a greedy step had failed
        with pytest.raises(ValueError, match=rf"vertex {label} is not a label in \[1, 5\]"):
            greedy_matching_from_high_degree_vertices(
                Hypergraph.complete(5, 2), [1, label]
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
