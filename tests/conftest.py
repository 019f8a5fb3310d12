"""Shared oracles for the test suite.

These deliberately reimplement the slow, obvious definitions so the
optimized paths are checked against an independent route.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import strategies as st

from hyperext.cliques import count_cliques, enumerate_cliques
from hyperext.core import Budget, Hypergraph, r_subsets
from hyperext.extremal import ExtremalParams, reaches_regime_threshold, theorem_bound
from hyperext.matchings import has_matching_at_most
from hyperext.shifting import ShiftTrace, precedes, shift

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
    """The largest number of pairwise disjoint edges, by trying every edge
    subset of each size.

    Sizes go up from 1 and stop at the first size with no disjoint
    subset: every subset of a matching is a matching.
    """
    best = 0
    for size in range(1, len(h.edges) + 1):
        if not any(_pairwise_disjoint(c) for c in combinations(h.edges, size)):
            break
        best = size
    return best


def _pairwise_disjoint(edges) -> bool:
    used = 0
    for e in edges:
        if e & used:
            return False
        used |= e
    return True


def find_matching_recursive(
    avail: list[int], need: int, r: int, budget: Budget
) -> list[int] | None:
    """``need`` pairwise-disjoint edges from ``avail`` (last pick first), or None.

    The ν search as plain recursion: one call per node, branching on each
    edge through the top covered vertex before dropping that vertex.
    """
    budget.spend()
    if need <= 0:
        return []
    if len(avail) < need:
        return None
    cover = 0
    for e in avail:
        cover |= e
    if cover.bit_count() // r < need:
        return None
    vbit = 1 << (cover.bit_length() - 1)
    for e in avail:
        if e & vbit:
            found = find_matching_recursive(
                [f for f in avail if not f & e], need - 1, r, budget
            )
            if found is not None:
                found.append(e)
                return found
    return find_matching_recursive([f for f in avail if not f & vbit], need, r, budget)


def naive_downset_count(n: int, r: int) -> int:
    """Count downsets of the precedence poset by brute force over subsets."""
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


def naive_stable_families(n: int, r: int, predicate=None, maximal=False):
    """The stable r-graphs on [n] that pass, by a per-element walk.

    The r-sets are taken in colex order.  Each is first left out, then
    put in if every r-set below it in ≺ is in and ``predicate(h, e)``
    accepts it.  With ``maximal``, an r-set left out that could have
    been put in stays on a stack, and a finished family is yielded iff
    the predicate, asked again with the whole family, rejects every
    r-set on the stack.
    """
    elements = sorted(r_subsets(n, r))
    below = [
        [f for f in elements[:i] if precedes(f, e)] for i, e in enumerate(elements)
    ]
    included: list[int] = []
    included_set: set[int] = set()
    addable: list[int] = []

    def accepts(e: int) -> bool:
        return predicate is None or predicate(
            Hypergraph._make(n, r, tuple(included)), e
        )

    def walk(idx: int):
        if idx == len(elements):
            if not maximal or not any(accepts(e) for e in reversed(addable)):
                yield Hypergraph._make(n, r, tuple(included))
            return
        e = elements[idx]
        ok = all(f in included_set for f in below[idx]) and accepts(e)
        if ok and maximal:
            addable.append(e)
        yield from walk(idx + 1)
        if ok:
            if maximal:
                addable.pop()
            included.append(e)
            included_set.add(e)
            yield from walk(idx + 1)
            included.pop()
            included_set.remove(e)

    yield from walk(0)


def lift_by_covers(g: Hypergraph, n: int) -> Hypergraph:
    """ext_n(g), the largest downset on [n] whose trace on [t] = [g.n]
    is the stable ``g``, by covers.

    An r-set inside [t] is in it iff it is in ``g``; any other r-set is
    in it iff every r-set that lowers one of its vertices by one step is.
    Those come before it in colex order, and every r-set inside [t]
    comes before every one that leaves [t], so one ascending pass
    decides each r-set from those before it.
    """
    t, r = g.n, g.r
    edges = list(g.edges)
    present = set(edges)
    for e in sorted(r_subsets(n, r)):
        if e >> t:
            covers = [
                e ^ (3 << (v - 1))
                for v in range(1, n)
                if e >> v & 1 and not e >> (v - 1) & 1
            ]
            if all(c in present for c in covers):
                edges.append(e)
                present.add(e)
    return Hypergraph._make(n, r, tuple(edges))


def shift_by_edges(h: Hypergraph, i: int, j: int) -> Hypergraph:
    """S_ij by its definition, one edge at a time: an edge that holds j
    and misses i goes to its target, with i in place of j, unless the
    target is already an edge of ``h``."""
    ibit = 1 << (i - 1)
    jbit = 1 << (j - 1)
    present = h.edge_set
    out = []
    for e in h.edges:
        if e & jbit and not e & ibit:
            target = (e ^ jbit) | ibit
            out.append(e if target in present else target)
        else:
            out.append(e)
    out.sort()
    return Hypergraph._make(h.n, h.r, tuple(out))


def _moved_count(h: Hypergraph, shifted: Hypergraph) -> int:
    return len(set(shifted.edges) - h.edge_set)


def stabilize_by_shifts(h: Hypergraph) -> ShiftTrace:
    """``stabilize`` one ``shift`` at a time: every pair step builds a
    new hypergraph, and its moves are counted by a set difference."""
    apps: list[tuple[int, int, int]] = []
    rounds = 0
    cur = h
    while True:
        rounds += 1
        moved_this_round = False
        for i in range(1, cur.n):
            for j in range(i + 1, cur.n + 1):
                nxt = shift(cur, i, j)
                if nxt.edges != cur.edges:
                    apps.append((i, j, _moved_count(cur, nxt)))
                    cur = nxt
                    moved_this_round = True
        if not moved_this_round:
            break
    return ShiftTrace(tuple(apps), rounds, cur)


def nu_at_most_from_scratch(k: int):
    """The (h, e) walk predicate that tests ν(h ∪ {e}) <= k on the whole family."""

    def pred(h: Hypergraph, e: int) -> bool:
        grown = Hypergraph._make(h.n, h.r, tuple(sorted(h.edges + (e,))))
        return has_matching_at_most(grown, k)

    return pred


def avoiding(blockers):
    """The (h, e) predicate of the blocker rule of
    ``shifting.enumerate_stable``: e may join h iff h holds no whole set
    that ``blockers(e)`` lists.  Each r-set's list is asked for once."""
    lists: dict[int, list] = {}

    def pred(h: Hypergraph, e: int) -> bool:
        if e not in lists:
            lists[e] = list(blockers(e))
        return not any(h.edge_set.issuperset(p) for p in lists[e])

    return pred


def disjoint_edge_sets(n: int, r: int, size: int) -> list[tuple[int, ...]]:
    """Every set of ``size`` pairwise disjoint r-sets of [n], by trying
    every ``size`` r-sets; the empty set for size 0."""
    universe = sorted(r_subsets(n, r))
    return [m for m in combinations(universe, size) if _pairwise_disjoint(m)]


def nu_blockers_through(n: int, r: int, k: int):
    """Blocker sets for ν <= k-1 on the edges that miss e, the walk's ν
    test in ``stable_with_matching_at_most``: every k disjoint r-sets of
    [n] that miss e.

    On a family with ν <= k it agrees with
    ``nu_blockers_from_scratch``; on one with ν > k it may still let e
    join."""
    every = disjoint_edge_sets(n, r, k)
    return lambda e: [m for m in every if not any(f & e for f in m)]


def nu_blockers_from_scratch(n: int, r: int, k: int):
    """Blocker sets for ν(h ∪ {e}) <= k on the whole family: every k+1
    disjoint r-sets of [n], and every k disjoint r-sets that miss e."""
    whole = disjoint_edge_sets(n, r, k + 1)
    through = nu_blockers_through(n, r, k)
    return lambda e: whole + through(e)


def _cell_from_families(n: int, k: int, r: int, s: int, families) -> dict:
    """The verdict on a cell, with cliques counted on every given family.

    ``families`` must hold a maximizer and every family whose value is
    the largest below the bound, so the maximum and the second best are
    read off directly.  The status follows the rules of the verifier's
    docstring.
    """
    params = ExtremalParams(n=n, k=k, r=r, s=s)
    bound, regime, gap = theorem_bound(params)
    values = [count_cliques(h, s).total for h in families]
    observed = max(values)
    second = max((v for v in values if v < bound), default=0)
    a = {"I": 1, "II": params.a, "III": r}[regime]
    if n >= max(r, a * k + a - 1) and observed < bound:
        status = "invariant-broken"
    elif regime == "III" and n >= r * k + r - 1 and second > gap:
        status = "counterexample"
    elif observed == bound:
        status = "confirmed"
    elif observed > bound:
        above = reaches_regime_threshold(params)
        status = "counterexample" if above else "bound-not-yet-active"
    else:
        status = "bound-not-yet-active"
    return {
        "regime": regime,
        "claimed_bound": bound,
        "observed_max": observed,
        "status": status,
        "second_best": second if regime == "III" else None,
    }


def all_leaves_cell(n: int, k: int, r: int, s: int) -> dict:
    """``verify_extremal_cell`` the slow way: cliques counted at every
    stable family with ν <= k, not only at the maximal ones."""
    families = naive_stable_families(n, r, nu_at_most_from_scratch(k))
    return _cell_from_families(n, k, r, s, families)


def every_graph_cell(n: int, k: int, r: int, s: int) -> dict:
    """``verify_extremal_cell`` without the stable reduction: cliques
    counted on every r-graph on [n] with ν <= k."""
    universe = list(r_subsets(n, r))
    m = len(universe)
    assert m <= 15, "oracle only for tiny universes"
    graphs = (
        Hypergraph.from_edge_masks(
            n, r, [e for i, e in enumerate(universe) if bits >> i & 1]
        )
        for bits in range(1 << m)
    )
    families = (h for h in graphs if has_matching_at_most(h, k))
    return _cell_from_families(n, k, r, s, families)


def clique_edges(h: Hypergraph, s: int) -> Hypergraph:
    """h_s: the edges of ``h`` that lie in an s-clique of ``h``."""
    cliques = list(enumerate_cliques(h, s))
    return Hypergraph._make(
        h.n, h.r, tuple([e for e in h.edges if any(c & e == e for c in cliques)])
    )


def prop32_families(n: int, k: int, r: int, s: int):
    """The families Proposition 3.2 speaks of: every stable r-graph on
    [n] with ν <= k, kept iff each of its edges lies in an s-clique."""
    for h in naive_stable_families(n, r, nu_at_most_from_scratch(k)):
        if clique_edges(h, s).edges == h.edges:
            yield h


def all_families_prop32_cell(n: int, k: int, r: int, s: int) -> dict:
    """``verify_proposition_3_2`` the slow way: the violating edges are
    counted on every family that meets the precondition, not on the
    maximal families alone."""
    a = (s - r) // k + 1
    head_mask = (1 << (r * k + a - 1)) - 1
    violations = sum(
        1
        for h in prop32_families(n, k, r, s)
        for e in h.edges
        if (e & head_mask).bit_count() < a
    )
    return {
        "status": "confirmed" if violations == 0 else "counterexample",
        "observed_max": violations,
    }
