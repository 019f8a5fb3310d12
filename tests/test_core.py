import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings

from conftest import hosts
from hyperext.core import (
    Hypergraph,
    HypergraphFormatError,
    degree,
    delete_vertices,
    induced_subhypergraph,
    labels_from_mask,
    mask_from_labels,
    neighborhood,
    parse,
    r_subsets,
    serialize,
)
from hyperext.extremal import build_extremal_family
from hyperext.randgen import random_hypergraph


def masks(*edges):
    return [mask_from_labels(e) for e in edges]


class TestConstruction:
    def test_r_subsets_in_combinations_order(self):
        for n in range(0, 10):
            for r in range(0, n + 2):
                assert list(r_subsets(n, r)) == [
                    sum(1 << v for v in c) for c in combinations(range(n), r)
                ]

    def test_edges_canonicalized_to_colex(self):
        h = Hypergraph.from_edges(4, 2, [(3, 4), (1, 2), (1, 3)])
        assert h.edge_labels() == [(1, 2), (1, 3), (3, 4)]

    def test_wrong_cardinality_rejected(self):
        with pytest.raises(ValueError, match="cardinality"):
            Hypergraph.from_edges(4, 3, [(1, 2)])

    def test_vertex_above_n_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph.from_edges(3, 2, [(2, 4)])

    def test_duplicate_edge_warns_and_dedups(self):
        with pytest.warns(UserWarning, match="duplicate"):
            h = Hypergraph.from_edges(3, 2, [(1, 2), (2, 1)])
        assert h.edge_count == 1

    def test_duplicate_edge_strict_raises(self):
        with pytest.raises(ValueError, match="duplicate"):
            Hypergraph.from_edges(3, 2, [(1, 2), (1, 2)], strict_duplicates=True)

    def test_mask_label_roundtrip(self):
        assert labels_from_mask(mask_from_labels([5, 1, 3])) == (1, 3, 5)


class TestInduced:
    def test_full_vertex_set_is_identity(self):
        h = Hypergraph.complete(5, 3)
        assert induced_subhypergraph(h, h.full_mask) == h

    def test_direct_definition(self):
        h = Hypergraph.from_edges(4, 3, [(1, 2, 3), (2, 3, 4)])
        sub = induced_subhypergraph(h, mask_from_labels([1, 2, 3]))
        assert sub.edge_labels() == [(1, 2, 3)]

    def test_removing_head_of_star_family_empties(self):
        h = build_extremal_family(8, 1, 3, 1)
        sub = induced_subhypergraph(h, mask_from_labels(range(2, 9)))
        assert sub.edges == ()

    def test_edge_partition_invariant(self):
        rng = random.Random(3)
        for _ in range(50):
            h = random_hypergraph(rng, rng.randint(3, 8), rng.randint(1, 3))
            s = rng.getrandbits(h.n)
            inside = induced_subhypergraph(h, s).edge_count
            meeting = sum(1 for e in h.edges if e & ~s)
            assert inside + meeting == h.edge_count


class TestDelete:
    def test_empty_deletion_is_identity(self):
        h = Hypergraph.from_edges(4, 2, [(1, 2), (3, 4)])
        assert delete_vertices(h, 0) == h

    def test_deleting_covered_vertex_kills_edge(self):
        h = Hypergraph.from_edges(3, 3, [(1, 2, 3)])
        assert delete_vertices(h, mask_from_labels([3])).edges == ()

    def test_deleting_star_center_empties(self):
        h = build_extremal_family(5, 1, 2, 1)
        assert delete_vertices(h, mask_from_labels([1])).edges == ()

    def test_equals_induced_on_complement(self):
        rng = random.Random(4)
        for _ in range(50):
            h = random_hypergraph(rng, rng.randint(3, 8), rng.randint(1, 3))
            s = rng.getrandbits(h.n)
            assert delete_vertices(h, s) == induced_subhypergraph(
                h, h.full_mask & ~s
            )


class TestNeighborhood:
    def test_complete_graph_vertex(self):
        h = Hypergraph.complete(4, 2)
        nb = neighborhood(h, mask_from_labels([1]))
        assert sorted(labels_from_mask(t) for t in nb) == [(2,), (3,), (4,)]
        assert degree(h, mask_from_labels([1])) == 3

    def test_pair_in_single_edge(self):
        h = Hypergraph.from_edges(3, 3, [(1, 2, 3)])
        nb = neighborhood(h, mask_from_labels([1, 2]))
        assert [labels_from_mask(t) for t in nb] == [(3,)]

    def test_star_family_head_degree(self):
        h = build_extremal_family(6, 1, 3, 1)
        nb = neighborhood(h, mask_from_labels([1]))
        assert len(nb) == 10
        assert all(t.bit_count() == 2 and not t & 1 for t in nb)

    def test_rejects_large_sets(self):
        h = Hypergraph.complete(4, 2)
        with pytest.raises(ValueError, match="< r"):
            neighborhood(h, mask_from_labels([1, 2]))

    def test_degree_counts_containing_edges_at_size_r_minus_1(self):
        rng = random.Random(5)
        for _ in range(30):
            h = random_hypergraph(rng, 7, 3)
            pair = mask_from_labels(rng.sample(range(1, 8), 2))
            expect = sum(1 for e in h.edges if e & pair == pair)
            assert degree(h, pair) == expect


class TestFileFormat:
    def test_parse_example(self):
        h = parse("3 2\n1 2\n1 3\n")
        assert (h.n, h.r) == (3, 2)
        assert h.edge_labels() == [(1, 2), (1, 3)]

    def test_comments_and_blank_lines_ignored(self):
        h = parse("# header comment\n\n4 2\n# edge\n2 3\n")
        assert h.edge_labels() == [(2, 3)]

    def test_serialize_is_canonical(self):
        h = Hypergraph.from_edges(3, 2, [(1, 3), (1, 2)])
        assert serialize(h) == "3 2\n1 2\n1 3\n"

    @settings(max_examples=150, deadline=None)
    @given(hosts())
    @example(Hypergraph(5, 2, ()))
    def test_roundtrip_fixpoint(self, h):
        assert parse(serialize(h)) == h

    def test_parse_canonicalizes_order(self):
        messy = "3 2\n2 3\n1 2\n"
        assert serialize(parse(messy)) == "3 2\n1 2\n2 3\n"

    def test_repeated_vertex_in_line_rejected(self):
        with pytest.raises(HypergraphFormatError, match="cardinality"):
            parse("3 3\n1 2 2\n")

    def test_out_of_range_label_rejected(self):
        with pytest.raises(HypergraphFormatError, match="out of range"):
            parse("3 2\n1 4\n")

    def test_missing_header_rejected(self):
        with pytest.raises(HypergraphFormatError, match="header"):
            parse("# nothing else\n")

    def test_duplicate_edge_line_warns(self):
        with pytest.warns(UserWarning):
            h = parse("3 2\n1 2\n2 1\n")
        assert h.edge_count == 1
