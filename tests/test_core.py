import random
import tracemalloc
import warnings
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import from_edge_masks_by_loop, hosts, parse_by_ints, serialize_by_labels
from hyperext.core import (
    Budget,
    BudgetExceededError,
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


class TestNegativeMasks:
    """A negative int has infinitely many set bits; every mask check
    rejects it instead of listing them."""

    def test_labels_from_mask(self):
        with pytest.raises(ValueError, match="non-negative"):
            labels_from_mask(-1)

    @pytest.mark.parametrize("bad", [-1, -8, -(1 << 70)])
    def test_from_edge_masks(self, bad):
        message = f"edge mask {bad} is negative"
        with pytest.raises(ValueError, match=message):
            Hypergraph.from_edge_masks(3, 1, [bad])
        with pytest.raises(ValueError, match=message):
            Hypergraph.from_edge_masks(3, 1, [1, bad], strict_duplicates=True)

    @pytest.mark.parametrize(
        "fn", [induced_subhypergraph, delete_vertices, neighborhood, degree]
    )
    @pytest.mark.parametrize("bad", [-1, -(1 << 70)])
    def test_vertex_set_functions(self, fn, bad):
        h = Hypergraph.complete(4, 2)
        with pytest.raises(ValueError, match=f"vertex set mask {bad} is negative"):
            fn(h, bad)


@st.composite
def mask_streams(draw):
    """(n, r, masks): masks mostly r-sets of [n], with repeats, some of
    the wrong size and some above n (negative masks are tested apart)."""
    r = draw(st.integers(1, 4))
    n = draw(st.integers(r, 7))
    good = st.sampled_from(list(r_subsets(n, r)))
    bad = st.sampled_from([0, 1 << n, (1 << (r + 1)) - 1, 1 << (n + 2) | 1])
    masks = draw(st.lists(st.one_of(good, good, good, bad), max_size=12))
    return n, r, masks


def outcome(fn, *args, **kw):
    """``fn``'s result or (exception type, message), and the warnings it
    gave as (category, message) pairs."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args, **kw)
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


class TestCanonicalEdges:
    @settings(max_examples=300, deadline=None)
    @given(mask_streams(), st.booleans())
    def test_from_edge_masks_equals_one_loop(self, stream, strict):
        n, r, masks = stream
        kw = {"strict_duplicates": strict}
        assert outcome(Hypergraph.from_edge_masks, n, r, masks, **kw) == outcome(
            from_edge_masks_by_loop, n, r, masks, **kw
        )

    def test_repeat_before_bad_edge_is_reported_first(self):
        got = outcome(Hypergraph.from_edge_masks, 3, 2, [3, 3, 7])
        assert got[0][0] is ValueError and "cardinality" in got[0][1]
        assert got[1] == [(UserWarning, "duplicate edge (1, 2) dropped")]
        got = outcome(Hypergraph.from_edge_masks, 3, 2, [3, 3, 7], strict_duplicates=True)
        assert got == ((ValueError, "duplicate edge (1, 2)"), [])


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


LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\u2028"]
SEPARATORS = [" ", "\t", "  ", " \t ", "\xa0", "\u3000"]
BAD_TOKENS = ["x", "1.5", "", "_1", "1e3", "0x1", "--2"]


def digits_in(zero: str):
    """str(v) with each ASCII digit moved to the block starting at ``zero``."""
    table = str.maketrans("0123456789", "".join(chr(ord(zero) + d) for d in range(10)))
    return lambda v: str(v).translate(table)


LABEL_FORMS = [
    str,
    "+{}".format,
    "0{}".format,
    "00{}".format,
    "-{}".format,
    "{:_}".format,
    digits_in("\u0660"),  # Arabic-Indic
    digits_in("\uff10"),  # fullwidth
]


@st.composite
def hg_texts(draw):
    """.hg texts that mix comments, blank lines, line ends, separators,
    label spellings, repeated edges and vertices, and bad tokens, labels,
    line lengths and headers; some have no header at all."""
    r = draw(st.integers(1, 4))
    n = draw(st.integers(r, 12))
    label = st.one_of(st.integers(1, n), st.integers(1, n), st.integers(-1, n + 2))
    token = st.builds(
        lambda form, v: form(v), st.sampled_from(LABEL_FORMS[:1] * 6 + LABEL_FORMS), label
    )
    token = st.one_of(*[token] * 12, st.sampled_from(BAD_TOKENS))

    # label lists of r - 1 to r + 1 drawn tokens, then r-sets of [n]
    loose = st.lists(token, min_size=max(1, r - 1), max_size=r + 1)
    pool = draw(st.lists(loose, max_size=4))
    pool += [
        [str(v) for v in labels_from_mask(e)]
        for e in draw(
            st.lists(st.sampled_from(list(r_subsets(n, r))), min_size=1, max_size=6)
        )
    ]
    sep = st.sampled_from(SEPARATORS)
    pad = st.sampled_from(["", "", " ", "\t", "  "])
    header = draw(
        st.sampled_from(
            [[str(n), str(r)]] * 6
            + [["+" + str(n), "0" + str(r)], [str(r), str(n + 1)], ["0", "0"],
               [str(n)], [str(n), str(r), "1"], ["x", str(r)], []]
        )
    )
    lines = []
    for kind in draw(st.lists(st.sampled_from("cbw"), max_size=4)) + ["h"]:
        if kind == "c":
            lines.append(draw(pad) + "#" + draw(st.sampled_from(["", " 1 2", "x"])))
        elif kind == "b":
            lines.append("")
        elif kind == "w":
            lines.append(draw(st.sampled_from([" ", "\t", " \t"])))
        elif kind == "h" and header:
            lines.append(draw(pad) + draw(sep).join(header) + draw(pad))
    at_least = draw(st.sampled_from([0, 1, 1, 1]))
    for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=at_least, max_size=12)):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "# c", "  #", "\t"])))
        lines.append(
            draw(pad) + "".join(t + draw(sep) for t in pool[i]).rstrip(" ") + draw(pad)
        )
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


class TestCodecEqualsOracle:
    """``parse`` and ``serialize`` against their per-token oracles."""

    @settings(max_examples=400, deadline=None)
    @given(hg_texts(), st.booleans())
    @example("# nothing else\n", False)
    @example("3 2\r\n1\t2\r\n# c\r\n\r\n+1 02\n2 1 1\n", False)
    @example("3 2\n1 2\n2 1\n", True)
    @example("3 2\n1 2\n1 2\n4 x\n", False)
    @example("\u0663 \u0662\n\u0661 \uff13\n", False)
    @example("10000000 2\n1 2\n9999999 10000000\n", False)
    def test_parse_equals_oracle(self, text, strict):
        kw = {"strict_duplicates": strict}
        assert outcome(parse, text, **kw) == outcome(parse_by_ints, text, **kw)

    @settings(max_examples=300, deadline=None)
    @given(hosts())
    @example(Hypergraph(5, 2, ()))
    @example(Hypergraph.complete(9, 1))
    @example(Hypergraph.complete(12, 11))
    def test_serialize_equals_oracle_and_round_trips(self, h):
        text = serialize(h)
        assert text == serialize_by_labels(h)
        assert parse(text) == h

    @staticmethod
    def peak_bytes(fn, *args) -> int:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_large_n_costs_only_the_labels_used(self):
        # a table over [n] would take hundreds of MB here; neither
        # direction builds even one n-bit int (1.25 MB)
        n = 10**7
        assert self.peak_bytes(parse, f"{n} 2\n1 2\n") < n // 8
        h = Hypergraph(n, 2, (0b11,))
        assert self.peak_bytes(serialize, h) < n // 8
        assert serialize(h) == f"{n} 2\n1 2\n"
        # nor do the constructor's and the vertex-set functions' checks
        assert self.peak_bytes(Hypergraph.from_edge_masks, n, 2, [0b11]) < n // 8
        assert self.peak_bytes(induced_subhypergraph, h, 0b111) < n // 8


class TestBudget:
    def test_spends_up_to_its_limit_then_raises(self):
        budget = Budget(3)
        for left in (2, 1, 0):
            budget.spend()
            assert budget.left == left
        with pytest.raises(BudgetExceededError) as info:
            budget.spend()
        assert str(info.value) == "search budget exceeded after 3 nodes"

    def test_no_limit_never_raises(self):
        budget = Budget()
        for _ in range(1000):
            budget.spend()
        assert budget.left is None

    @pytest.mark.parametrize("limit", [0, -1])
    def test_below_one_rejected(self, limit):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            Budget(limit)
