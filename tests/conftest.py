"""Shared oracles for the test suite.

These deliberately reimplement the slow, obvious definitions so the
optimized paths are checked against an independent route.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import strategies as st

from hyperext.core import Hypergraph, r_subsets

# one line per acceptance criterion, printed after the run so the
# verdicts survive pytest's output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@st.composite
def hosts(draw, max_edges: int | None = None) -> Hypergraph:
    """Random r-graphs with r in 1..4 and n <= 9, shrinking to the empty host.

    Without ``max_edges`` every r-set is kept or not by one drawn bit, so
    hosts are dense enough to hold large cliques.
    """
    r = draw(st.integers(1, 4))
    n = draw(st.integers(r, 9))
    universe = list(r_subsets(n, r))
    if max_edges is None:
        bits = draw(st.integers(0, (1 << len(universe)) - 1))
        edges = [e for i, e in enumerate(universe) if bits >> i & 1]
    else:
        edges = draw(
            st.lists(st.sampled_from(universe), unique=True, max_size=max_edges)
        )
    return Hypergraph.from_edge_masks(n, r, edges)


def naive_clique_count(h: Hypergraph, s: int) -> int:
    """Test every s-subset of vertices directly against the definition."""
    total = 0
    for verts in combinations(range(h.n), s):
        if all(
            sum(1 << v for v in sub) in h.edge_set
            for sub in combinations(verts, h.r)
        ):
            total += 1
    return total


def naive_matching_number(h: Hypergraph) -> int:
    """Maximum over all edge subsets that are pairwise disjoint."""
    best = 0
    edges = h.edges
    for size in range(len(edges), 0, -1):
        if size <= best:
            break
        for comb in combinations(edges, size):
            used = 0
            for e in comb:
                if e & used:
                    break
                used |= e
            else:
                best = size
                break
    return best


def naive_downset_count(n: int, r: int) -> int:
    """Count downsets of the precedence poset by brute force over subsets."""
    from hyperext.shifting import precedes

    elements = [
        sum(1 << (v - 1) for v in c) for c in combinations(range(1, n + 1), r)
    ]
    m = len(elements)
    assert m <= 12, "oracle only for tiny posets"
    count = 0
    for bits in range(1 << m):
        chosen = [elements[i] for i in range(m) if bits >> i & 1]
        chosen_set = set(chosen)
        if all(
            all(elements[i] in chosen_set or not precedes(elements[i], e)
                for i in range(m))
            for e in chosen
        ):
            count += 1
    return count
