"""Matching number, rainbow matchings, and the greedy constructions.

One exhaustive search decides whether a target number of pairwise
disjoint edges exists: it branches on every edge through the
highest-indexed covered vertex versus discarding that vertex, and prunes
when floor(covered/r) falls below the number of edges still needed.
``has_matching_at_most(h, k)`` is one search with target k+1.
``matching_number`` raises the target from 1 until the search fails;
the last matching found is the witness.  Every search node spends one
node of the ``core.Budget`` handed in, across all rounds and all calls
that share it; exactness is non-negotiable, so running out raises
``BudgetExceededError`` instead of approximating.

Any pivot vertex is exact; the top one is chosen for stable input, which
is all the verifier's walk asks about.  In a stable family, for i < j,
S_ij maps the edges through j but not i one-to-one into those through i
but not j, so the top covered vertex has the least degree and the
fewest branches.  Both sub-searches stay stable on the vertices they
keep: dropping the edges that meet a set X leaves a family closed under
every shift that avoids X.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Budget, ColoredFamily, Hypergraph, neighborhood


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


def _find_matching(
    avail: list[int], need: int, r: int, budget: Budget
) -> list[int] | None:
    """``need`` pairwise-disjoint edges from ``avail`` (last pick first), or None."""
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
            found = _find_matching([f for f in avail if not f & e], need - 1, r, budget)
            if found is not None:
                found.append(e)
                return found
    return _find_matching([f for f in avail if not f & vbit], need, r, budget)


def matching_number(
    h: Hypergraph, budget: Budget | None = None
) -> tuple[int, Matching]:
    """Exact ν(h) and a maximum matching witnessing it."""
    budget = budget or Budget()
    edges = list(h.edges)
    best: list[int] = []
    while True:
        found = _find_matching(edges, len(best) + 1, h.r, budget)
        if found is None:
            return len(best), Matching(tuple(reversed(best)))
        best = found


def has_matching_at_most(
    h: Hypergraph, k: int, budget: Budget | None = None
) -> bool:
    """True iff ν(h) <= k; stops as soon as k+1 disjoint edges are found."""
    return _find_matching(list(h.edges), k + 1, h.r, budget or Budget()) is None


def _rainbow_picks(
    fam: ColoredFamily, order: list[int], picks: list[tuple[int, int]], used: int
) -> bool:
    """Add one edge per color left in ``order`` to ``picks``, avoiding ``used``."""
    pos = len(picks)
    if pos == fam.k:
        return True
    ci = order[pos]
    for e in fam.members[ci].edges:
        if not e & used:
            picks.append((ci + 1, e))
            if _rainbow_picks(fam, order, picks, used | e):
                return True
            picks.pop()
    return False


def find_rainbow_matching(fam: ColoredFamily) -> RainbowMatching | None:
    """Exhaustive backtracking; colors tried in ascending edge-count order."""
    order = sorted(range(fam.k), key=lambda i: (len(fam.members[i].edges), i))
    picks: list[tuple[int, int]] = []
    if _rainbow_picks(fam, order, picks, 0):
        picks.sort()
        return RainbowMatching(tuple(picks))
    return None


def greedy_matching_from_high_degree_vertices(
    h: Hypergraph, vertices: list[int]
) -> Matching | None:
    """Greedy step i: first edge through v_i avoiding earlier edges and later v_j.

    ``vertices`` are distinct 1-indexed labels.  Succeeds whenever the
    degree hypothesis deg(v_i) > 2(k-1) C(n-2, r-2) holds (with rk <= n);
    may return None otherwise.
    """
    if len(set(vertices)) != len(vertices):
        raise ValueError("vertices must be distinct")
    chosen: list[int] = []
    used = 0
    for i, v in enumerate(vertices):
        vbit = 1 << (v - 1)
        later = 0
        for w in vertices[i + 1 :]:
            later |= 1 << (w - 1)
        pick = None
        for e in h.edges:
            if e & vbit and not e & used and not e & later:
                pick = e
                break
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
        pick = None
        for b in neighborhood(h, a_mask):
            if not b & all_a and not b & used_b:
                pick = b
                break
        if pick is None:
            return None
        chosen.append(a_mask | pick)
        used_b |= pick
    return Matching(tuple(chosen))
