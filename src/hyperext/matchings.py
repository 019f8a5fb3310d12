"""Matching number, rainbow matchings, and the greedy constructions.

One exhaustive search decides whether a target number of pairwise
disjoint edges exists: it branches on every edge through the
highest-indexed covered vertex versus discarding that vertex, and prunes
when floor(covered/r) falls below the number of edges still needed.
It is a depth-first stack of immutable nodes ``(avail, drop, need,
picks)``, so its depth is not bounded by Python's recursion limit: a
star on a thousand vertices drops one vertex per level.  A node filters
its parent's edge list ``avail`` by ``drop`` only when it is popped, so
a child that is never tried costs no list.
``find_matching(h, size)`` returns the matching that search finds, or
None; ``has_matching_at_most(h, k)`` is one search with target k+1, and
``matching_number`` is one search of the same tree that keeps the
longest matching found so far and prunes against it.  Every search node
spends one node of the ``core.Budget`` handed in, across all calls that
share it; exactness is non-negotiable, so running out raises
``BudgetExceededError`` instead of approximating.

Any pivot vertex is exact; the top one is chosen for stable input, such
as the verifier's witnesses.  In a stable family, for i < j, S_ij maps
the edges through j but not i one-to-one into those through i but not
j, so the top covered vertex has the least degree and the fewest
branches.  Both sub-searches stay stable on the vertices they keep:
dropping the edges that meet a set X leaves a family closed under every
shift that avoids X.

The verifier's walk runs no search: whether a stable family on [rk] has
k disjoint edges is read off ``perfect_matching_patterns(r, k)``, a few
edge sets one of which it must hold.  Those are built on the index of
the r-sets of [rk] and of ≺ that ``shifting.colex_order`` gives the
walk too.  The search serves everything else, among it the verifier's
re-check of each witness and ``hyperext nu``.

A rainbow matching of a coloured family picks one edge per colour,
pairwise disjoint.  ``find_rainbow_matching`` is a depth-first search,
one level per colour in ascending edge-count order, that remembers the
vertex sets it has refuted: whether the colours from a level on can be
completed depends only on the used vertices that their edges could
cover, so a refuted set is never explored twice.  The memo pays on
families with no rainbow matching, where the search must exhaust: on
the boundary family for (n, k, r) = (14, 7, 2), seven copies of
F_{14,6,1}, it takes 57,583 nodes, where plain backtracking takes
23,604,484.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations
from operator import or_
from typing import Iterator

from .core import Budget, ColoredFamily, Hypergraph, iter_bits, neighborhood
from .shifting import colex_order


@dataclass(frozen=True)
class Matching:
    """A list of pairwise-disjoint edges, as vertex masks."""

    edges: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class RainbowMatching:
    """One edge per color, pairwise disjoint: pairs (color index, edge mask)."""

    picks: tuple[tuple[int, int], ...]


def is_valid_matching(h: Hypergraph, m: Matching) -> bool:
    used = 0
    for e in m.edges:
        if e not in h.edge_set or e & used:
            return False
        used |= e
    return True


def is_valid_rainbow_matching(fam: ColoredFamily, rm: RainbowMatching) -> bool:
    colors = sorted(c for c, _ in rm.picks)
    if colors != list(range(1, fam.k + 1)):
        return False
    used = 0
    for color, e in rm.picks:
        if e not in fam.members[color - 1].edge_set or e & used:
            return False
        used |= e
    return True


def _longer_matchings(
    h: Hypergraph, size: int, budget: Budget | None
) -> Iterator[tuple[int, ...]]:
    """The ν search: in depth-first order, each matching of ``h`` with at
    least ``size`` edges and more edges than any yielded before it, in
    pick order.

    A node ``(avail, drop, picks)`` is the parent's edge list, the mask
    this node removes from it (its picked edge, the pivot vertex it
    drops, or 0 at the root) and the edges picked so far.  A pop spends
    one node, filters, prunes, and pushes the child that drops the pivot
    below the children that pick each edge through it, the first edge on
    top: the order of a search that tries each pick before dropping the
    vertex.  Filtering at the pop, not the push, leaves the siblings of a
    match unfiltered; on the benchmark's ν hosts a version that filtered
    each child as it was pushed took about 1.3 times as long.  The one
    prune is on the covered vertices: a node whose picks plus
    floor(covered/r) fall short of the next size to yield cannot reach
    it, and since every edge has r of them, this also cuts a node with
    too few edges.
    """
    budget = budget or Budget()
    r = h.r
    stack = [(h.edges, 0, ())]
    while stack:
        avail, drop, picks = stack.pop()
        budget.spend()
        if len(picks) >= size:
            yield picks
            size = len(picks) + 1
        avail = [f for f in avail if not f & drop]
        cover = 0
        for e in avail:
            cover |= e
        if len(picks) + cover.bit_count() // r < size:
            continue
        vbit = 1 << (cover.bit_length() - 1)
        stack.append((avail, vbit, picks))
        for e in reversed(avail):
            if e & vbit:
                stack.append((avail, e, picks + (e,)))


def find_matching(
    h: Hypergraph, size: int, budget: Budget | None = None
) -> Matching | None:
    """``size`` pairwise-disjoint edges of ``h`` in pick order, or None if
    it has none: the search stops at the first matching it yields."""
    picks = next(_longer_matchings(h, size, budget), None)
    return None if picks is None else Matching(picks)


def matching_number(
    h: Hypergraph, budget: Budget | None = None
) -> tuple[int, Matching]:
    """Exact ν(h) and a maximum matching witnessing it, by one search.

    The search raises its target each time it meets a longer matching,
    so it prunes every subtree that cannot beat the best so far.  Such a
    subtree holds no longer matching, so the first size-ν matching in
    depth-first order is reached, and it is the one ``find_matching(h,
    ν)`` returns: that search walks the same tree in the same order and
    prunes only subtrees with no size-ν matching.
    """
    best: tuple[int, ...] = ()
    for best in _longer_matchings(h, 0, budget):
        pass
    return len(best), Matching(best)


def has_matching_at_most(
    h: Hypergraph, k: int, budget: Budget | None = None
) -> bool:
    """True iff ν(h) <= k; stops as soon as k+1 disjoint edges are found."""
    return find_matching(h, k + 1, budget) is None


@cache
def perfect_matching_patterns(r: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The patterns P(r, k): a stable r-graph on [rk] has k disjoint
    edges iff it holds every edge of one of them.

    k disjoint r-sets M of [rk] cover it, and a downset holds M iff it
    holds down(M), the r-sets ≺ some edge of M.  So the downsets with a
    perfect matching are those that hold a ⊆-minimal down(M), and a
    downset holds down(M) iff it holds the ≺-maximal edges of M; those
    edge sets are the patterns, each in colex order.  There is one for
    r <= 2 or k <= 1 (the empty one for k = 0), 5 for (3, 2), 21 for
    (4, 2), 52 for (3, 3) and 84 for (5, 2).

    The matchings are built edge by edge, each edge through the lowest
    vertex not yet covered.  down(M) is a bit set over the r-sets of
    [rk] in ``shifting.colex_order``, the union of one down({e}) per
    edge, so whether every edge of M is ≺ some edge of M' is one AND.
    Two partial matchings that cover the same vertices have the same
    completions, and the one with the larger down(·) stays larger after
    each, so only the ⊆-minimal down(·) are kept per vertex set
    covered.  A kept down(·) is a downset, so an edge of it is
    ≺-maximal iff it is a cover of none of its edges.  Built once per
    (r, k) and kept for the process.
    """
    if r < 1 or k < 0:
        raise ValueError(f"need r >= 1 and k >= 0, got r={r}, k={k}")
    full = (1 << r * k) - 1
    sets, index, below, _, down, _ = colex_order(r * k, r)

    # covered vertex set -> the ⊆-minimal down(·) of the partial
    # matchings that cover it
    layer: dict[int, list[int]] = {0: [0]}
    for _ in range(k):
        grown: dict[int, set[int]] = {}
        for covered, downs in layer.items():
            free = full & ~covered
            low = free & -free
            for others in combinations(list(iter_bits(free ^ low)), r - 1):
                e = low | sum(1 << v for v in others)
                more = grown.setdefault(covered | e, set())
                more.update([down[index[e]] | d for d in downs])
        layer = {}
        for covered, downs in grown.items():
            kept: list[int] = []
            for d in sorted(downs, key=int.bit_count):
                if not any(d & p == p for p in kept):
                    kept.append(d)
            layer[covered] = kept

    patterns = []
    for d in layer[full]:
        not_maximal = reduce(or_, [below[i] for i in iter_bits(d)], 0)
        patterns.append(tuple([sets[i] for i in iter_bits(d & ~not_maximal)]))
    return tuple(sorted(patterns))


def _rainbow_picks(
    levels: list[tuple[tuple[int, ...], int, set[int]]],
    pos: int,
    used: int,
    picks: list[int],
) -> bool:
    """Append to ``picks`` one edge per level from ``pos`` on, pairwise
    disjoint and avoiding ``used``; False, with ``picks`` as it was, if
    there are none.

    Level i is ``(edges, reach, dead)``: the edges of the i-th colour in
    search order, the union of the vertices of every edge of levels i
    and on, and the keys refuted at level i.  Whether the levels from
    ``pos`` on can be completed depends on ``used`` only through the
    vertices they could cover, so the key is ``used & reach``.  A key
    is recorded only when its subtree holds no completion, and a later
    node with that key returns False without branching: only subtrees
    with no completion are skipped, so the first completion in
    depth-first order is the one the plain search finds.  The recursion
    is one level per colour, so its depth is k.
    """
    if pos == len(levels):
        return True
    edges, reach, dead = levels[pos]
    key = used & reach
    if key in dead:
        return False
    pos += 1
    for e in edges:
        if not e & used:
            picks.append(e)
            if _rainbow_picks(levels, pos, used | e, picks):
                return True
            picks.pop()
    dead.add(key)
    return False


def find_rainbow_matching(fam: ColoredFamily) -> RainbowMatching | None:
    """A rainbow matching of ``fam``, or None if it has none.

    Colours are tried in ascending edge-count order (ties by colour) and
    each colour's edges in their order, by the memoised search of
    ``_rainbow_picks``; the refuted keys live for this call only.
    """
    members = fam.members
    order = sorted(range(fam.k), key=lambda i: (len(members[i].edges), i))
    levels = []
    reach = 0
    for ci in reversed(order):
        edges = members[ci].edges
        reach |= reduce(or_, edges, 0)
        levels.append((edges, reach, set()))
    levels.reverse()
    picks: list[int] = []
    if not _rainbow_picks(levels, 0, 0, picks):
        return None
    return RainbowMatching(tuple(sorted(zip([ci + 1 for ci in order], picks))))


def greedy_matching_from_high_degree_vertices(
    h: Hypergraph, vertices: list[int]
) -> Matching | None:
    """Greedy step i: first edge through v_i avoiding earlier edges and later v_j.

    ``vertices`` are distinct labels in [n], else ``ValueError``.
    Succeeds whenever the degree hypothesis deg(v_i) > 2(k-1) C(n-2, r-2)
    holds (with rk <= n); may return None otherwise.
    """
    if len(set(vertices)) != len(vertices):
        raise ValueError("vertices must be distinct")
    for v in vertices:
        if not 1 <= v <= h.n:
            raise ValueError(f"vertex {v} is not a label in [1, {h.n}]")
    chosen: list[int] = []
    used = 0
    for i, v in enumerate(vertices):
        vbit = 1 << (v - 1)
        # the labels are distinct, so the sum of their bits is their union
        avoid = used | sum(1 << (w - 1) for w in vertices[i + 1 :])
        pick = next((e for e in h.edges if e & vbit and not e & avoid), None)
        if pick is None:
            return None
        chosen.append(pick)
        used |= pick
    return Matching(tuple(chosen))


def greedy_matching_from_disjoint_tuples(
    h: Hypergraph, tuples: list[int]
) -> Matching | None:
    """Greedy step i: first B_i in N(A_i) avoiding every A_j and earlier B_j.

    ``tuples`` are pairwise-disjoint a-set masks with a < r; a large
    enough common degree of the A_i guarantees success.  Returns the
    matching {A_i ∪ B_i} on success.
    """
    all_a = 0
    for a_mask in tuples:
        if a_mask & all_a:
            raise ValueError("tuples must be pairwise disjoint")
        if a_mask.bit_count() >= h.r:
            raise ValueError("each tuple must have fewer than r vertices")
        all_a |= a_mask
    chosen: list[int] = []
    used_b = 0
    for a_mask in tuples:
        avoid = all_a | used_b
        pick = next((b for b in neighborhood(h, a_mask) if not b & avoid), None)
        if pick is None:
            return None
        chosen.append(a_mask | pick)
        used_b |= pick
    return Matching(tuple(chosen))
