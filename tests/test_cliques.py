import gc
import math
import random
import sys

import pytest
from hypothesis import example, given, settings

from conftest import extension_table_by_subsets, hosts, naive_clique_count
from hyperext import cliques
from hyperext.cliques import _walk, clique_census, count_cliques, enumerate_cliques
from hyperext.core import Hypergraph, delete_vertices, mask_from_labels
from hyperext.extremal import build_extremal_family
from hyperext.randgen import random_hypergraph


class TestEnumerate:
    def test_complete_graph_gives_all_subsets(self):
        h = Hypergraph.complete(6, 2)
        for s in range(2, 7):
            assert len(list(enumerate_cliques(h, s))) == math.comb(6, s)

    def test_embedded_triangle(self):
        h = build_extremal_family(5, 1, 2, 2)
        assert list(enumerate_cliques(h, 3)) == [mask_from_labels([1, 2, 3])]

    def test_single_edge_no_larger_clique(self):
        h = Hypergraph.from_edges(5, 3, [(1, 2, 3)])
        assert list(enumerate_cliques(h, 4)) == []

    def test_colex_order(self):
        rng = random.Random(1)
        for _ in range(30):
            h = random_hypergraph(rng, 8, 2, 0.6)
            found = list(enumerate_cliques(h, 3))
            assert found == sorted(found)

    def test_rejects_s_below_r(self):
        with pytest.raises(ValueError):
            list(enumerate_cliques(Hypergraph.complete(4, 3), 2))


class TestCount:
    def test_complete_graph(self):
        for n, r in [(7, 2), (6, 3), (5, 4)]:
            h = Hypergraph.complete(n, r)
            for s in range(r, n + 1):
                assert count_cliques(h, s).total == math.comb(n, s)

    def test_frozen_value_from_naive_oracle(self):
        # K_3^3 of the level-1 family on 10 vertices with k=2:
        # brute force over all C(10,3) triples gives 64.
        h = build_extremal_family(10, 2, 3, 1)
        assert naive_clique_count(h, 3) == 64
        assert count_cliques(h, 3).total == 64

    def test_equals_naive_oracle_on_random_inputs(self):
        rng = random.Random(2)
        for _ in range(60):
            n = rng.randint(4, 12)
            r = rng.randint(2, min(4, n))
            h = random_hypergraph(rng, n, r)
            s = rng.randint(r, min(n, r + 3))
            assert count_cliques(h, s).total == naive_clique_count(h, s)

    def test_s_equals_r_counts_edges(self):
        rng = random.Random(3)
        for _ in range(30):
            h = random_hypergraph(rng, 8, rng.randint(1, 3))
            assert count_cliques(h, h.r).total == h.edge_count

    def test_partition_law_over_vertices(self):
        rng = random.Random(4)
        for _ in range(30):
            h = random_hypergraph(rng, 8, 3, 0.7)
            s = rng.randint(3, 6)
            cc = count_cliques(h, s, per_vertex=True)
            for u in range(1, 9):
                rest = delete_vertices(h, mask_from_labels([u]))
                assert (
                    cc.total
                    == count_cliques(rest, s).total + cc.per_vertex[u]
                )

    def test_per_vertex_sums_to_s_times_total(self):
        rng = random.Random(5)
        for _ in range(30):
            h = random_hypergraph(rng, 9, 2, 0.5)
            s = rng.randint(2, 5)
            cc = count_cliques(h, s, per_vertex=True)
            assert sum(cc.per_vertex.values()) == s * cc.total
            assert cc.total <= math.comb(9, s)

    def test_adding_edge_never_decreases(self):
        rng = random.Random(6)
        for _ in range(30):
            h = random_hypergraph(rng, 8, 3, 0.5)
            missing = [
                m
                for m in (e for e in Hypergraph.complete(8, 3).edges)
                if m not in h.edge_set
            ]
            if not missing:
                continue
            bigger = Hypergraph.from_edge_masks(
                8, 3, h.edges + (rng.choice(missing),)
            )
            for s in (3, 4, 5):
                assert (
                    count_cliques(bigger, s).total >= count_cliques(h, s).total
                )

    def test_s_above_n_is_zero(self):
        h = Hypergraph.complete(4, 2)
        assert count_cliques(h, 5).total == 0

    def test_no_reference_cycle_left_behind(self):
        h = build_extremal_family(9, 2, 3, 1)
        routes = [
            lambda: count_cliques(h, 4),
            lambda: count_cliques(h, 4, per_vertex=True),
            lambda: clique_census(h, 9),
            lambda: list(enumerate_cliques(h, 4)),
        ]
        gc.collect()
        gc.disable()
        try:
            for route in routes:
                route()
                assert gc.collect() == 0
        finally:
            gc.enable()


class TestCensus:
    def test_matches_per_size_counts(self):
        rng = random.Random(7)
        for _ in range(30):
            h = random_hypergraph(rng, 9, rng.randint(2, 3))
            census = clique_census(h, 9)
            for s in range(h.r, 10):
                assert census[s] == count_cliques(h, s).total


class TestOneWalk:
    """Counting, per-vertex counting, census and enumeration share one walk."""

    @settings(max_examples=150, deadline=None)
    @given(hosts())
    @example(Hypergraph(5, 2, ()))
    @example(Hypergraph.from_edges(6, 1, [(1,), (3,), (4,), (6,)]))
    def test_every_route_equals_oracle(self, h):
        census = clique_census(h, h.n + 1)
        for s in range(h.r, h.n + 2):
            cc = count_cliques(h, s, per_vertex=True)
            assert cc.total == naive_clique_count(h, s) == census[s]
            assert count_cliques(h, s).total == cc.total
            found = list(enumerate_cliques(h, s))
            assert len(found) == cc.total and found == sorted(found)
            assert cc.per_vertex == {
                v: sum(c >> (v - 1) & 1 for c in found) for v in range(1, h.n + 1)
            }
            assert sum(cc.per_vertex.values()) == s * cc.total

    @settings(max_examples=150, deadline=None)
    @given(hosts())
    @example(Hypergraph(5, 2, ()))
    @example(Hypergraph(1, 1, ()))
    @example(Hypergraph.from_edges(6, 1, [(1,), (3,), (4,), (6,)]))
    @example(Hypergraph.complete(7, 1))
    @example(Hypergraph.complete(8, 3))
    def test_every_window_equals_oracle(self, h):
        # a child is pushed only if it can still reach size lo, so the
        # prune depends on lo: check every window up to s = n + 1
        naive = {s: naive_clique_count(h, s) for s in range(h.r, h.n + 2)}
        for lo in range(h.r, h.n + 2):
            for hi in range(lo, h.n + 2):
                assert _walk(h, lo, hi) == {s: naive[s] for s in range(lo, hi + 1)}

    def test_every_route_on_toolkit_sized_hosts(self):
        # sized like the benchmark's clique calls (r = 3, n 19..21,
        # p = 0.45), far above the n <= 9 of hosts()
        rng = random.Random(30)
        for _ in range(12):
            h = random_hypergraph(rng, rng.randint(19, 21), 3, 0.45)
            s = rng.choice((4, 5))
            cc = count_cliques(h, s, per_vertex=True)
            found = list(enumerate_cliques(h, s))
            assert cc.total == naive_clique_count(h, s) == len(found)
            assert found == sorted(set(found))
            assert clique_census(h, s) == {
                t: naive_clique_count(h, t) for t in range(3, s + 1)
            }
            assert cc.per_vertex == {
                v: sum(c >> (v - 1) & 1 for c in found) for v in range(1, h.n + 1)
            }

    def test_clique_deeper_than_the_recursion_limit(self):
        # r = 1: the only n-clique is [n]; the walk goes n - 1 nodes deep
        # and counts [n] at the last of them
        n = sys.getrecursionlimit() + 100
        h = Hypergraph.complete(n, 1)
        assert count_cliques(h, n).total == 1
        assert list(enumerate_cliques(h, n)) == [h.full_mask]


def _walk_outputs(h, lo, hi):
    found: list[int] = []
    tally = [0] * h.n
    return _walk(h, lo, hi, found=found, tally=tally), found, tally


def _assert_walk_as_with_subset_table(h, windows):
    for lo, hi in windows:
        outputs = _walk_outputs(h, lo, hi)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cliques, "_extension_table", extension_table_by_subsets)
            assert _walk_outputs(h, lo, hi) == outputs


def _every_window(h):
    return [(lo, hi) for lo in range(h.r, h.n + 2) for hi in range(lo, h.n + 2)]


class TestExtensionTable:
    """The table holds one entry per edge, and the walk reads no other."""

    def test_one_entry_per_edge_keyed_below_its_top_vertex(self):
        rng = random.Random(41)
        for _ in range(200):
            r = rng.randint(1, 5)
            h = random_hypergraph(rng, rng.randint(r, 11), r)
            ext = cliques._extension_table(h)
            assert sum(m.bit_count() for m in ext.values()) == len(h.edges)
            for key, completions in ext.items():
                x = completions
                while x:
                    w = x & -x
                    x ^= w
                    assert key | w in h.edge_set
                    assert w.bit_length() > key.bit_length()

    @settings(max_examples=150, deadline=None)
    @given(hosts())
    @example(Hypergraph(5, 2, ()))
    @example(Hypergraph.complete(7, 1))
    @example(Hypergraph.complete(8, 3))
    def test_walk_as_with_every_subset_entry(self, h):
        # counts, the unsorted found list and the tally of every window
        # equal those of the walk on the table of every (r-1)-subset
        _assert_walk_as_with_subset_table(h, _every_window(h))

    def test_walk_as_with_every_subset_entry_beyond_hosts(self):
        # r = 5 and n up to 11, past the r <= 4, n <= 9 of hosts(), and
        # hosts sized like the benchmark's clique calls
        rng = random.Random(42)
        for _ in range(40):
            n = rng.randint(5, 11)
            h = random_hypergraph(rng, n, 5, rng.uniform(0.5, 1.0))
            _assert_walk_as_with_subset_table(h, _every_window(h))
        for _ in range(6):
            h = random_hypergraph(rng, rng.randint(19, 21), 3, 0.45)
            s = rng.choice((4, 5))
            _assert_walk_as_with_subset_table(h, [(3, s), (s, s)])
