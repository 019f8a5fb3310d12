"""Exact s-clique enumeration and counting for r-graphs.

An s-clique is an s-vertex set all of whose r-subsets are edges.  One
walk serves counting, the per-size census and enumeration.  It is a
depth-first stack of immutable nodes ``(clique, extenders)``: a clique
and the bit set of the vertices above its top vertex that extend it to a
larger clique.  Keeping only extenders above the top vertex builds each
clique once, by adding its vertices in increasing label order, as in
Chiba and Nishizeki's ordered clique listing.  In that order an edge is
only ever completed by its top vertex, so the precomputed extension
table has one entry per edge: the mask of its lower r-1 vertices maps to
the top vertices that complete it.  A child's extenders then cost a
handful of bitwise ANDs.  The walk counts the cliques of every size in a
window, each at its parent, as the number of the parent's extenders.  A
child is pushed only if it is live: it has extenders, and enough of them
to reach the window's least size.  The cliques of the top size get no
node of their own.  Their parent builds them only for enumeration, and
tallies their vertices for per-vertex counting; plain counting holds
none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .core import Hypergraph


@dataclass(frozen=True)
class CliqueCount:
    """Total (and optionally per-vertex) number of s-cliques."""

    s: int
    total: int
    per_vertex: dict[int, int] | None = None


def _extension_table(h: Hypergraph) -> dict[int, int]:
    """Map each edge's lower r-1 vertices to the top vertices completing them.

    Each edge is one entry: its top vertex, ORed in under the mask of its
    other r-1 vertices.  That is every entry ``_walk`` reads.  It asks for
    ``ext[S | v]`` with S an (r-2)-set below v, and keeps only the answers
    w above v.  An edge is S + v + w with S < v < w in exactly one way: S
    its lowest r-2 vertices, v its second-highest and w its top vertex.
    For r = 1 every edge sits under the key 0, the walk's root.
    """
    ext: dict[int, int] = {}
    for e in h.edges:
        top = 1 << (e.bit_length() - 1)
        ext[e ^ top] = ext.get(e ^ top, 0) | top
    return ext


def _walk(
    h: Hypergraph,
    lo: int,
    hi: int,
    found: list[int] | None = None,
    tally: list[int] | None = None,
) -> dict[int, int]:
    """Number of cliques of each size lo..hi, counted at their parents.

    A node ``(clique, extenders)`` is a clique of size m below ``hi`` and
    the vertices above its top vertex that extend it.  Its children are
    the cliques ``clique | v``, one per extender v, so the node adds the
    number of its extenders to the count of size m + 1.  A vertex w
    above v extends ``clique | v`` iff it extends the clique and
    completes each (r-1)-set S + v, for S an (r-2)-subset of the clique.
    So the child that adds v keeps the extenders above v that lie in
    every ``ext[S | v]``, which holds only completing vertices above v.
    A child is pushed only if it is live: it has extenders, and with
    them can still reach size ``lo``.  A node of size ``hi - 1`` pushes
    no child.  It appends its children to ``found`` and tallies their
    vertices into ``tally``: each vertex of the clique lies in all of
    them, and each extender in one.
    """
    r = h.r
    counts = dict.fromkeys(range(lo, hi + 1), 0)
    if lo > h.n or not h.edges:
        return counts
    ext = _extension_table(h)
    stack = [(0, ext.get(0, 0) if r == 1 else h.full_mask)]
    while stack:
        clique, extenders = stack.pop()
        m = clique.bit_count() + 1  # the size of the children
        if m >= lo:
            counts[m] += extenders.bit_count()
        if m == hi:
            if found is not None:
                x = extenders
                while x:
                    low = x & -x
                    found.append(clique | low)
                    x ^= low
            if tally is not None:
                c = extenders.bit_count()
                x = clique
                while x:
                    low = x & -x
                    tally[low.bit_length() - 1] += c
                    x ^= low
                x = extenders
                while x:
                    low = x & -x
                    tally[low.bit_length() - 1] += 1
                    x ^= low
            continue
        # the (r-2)-subsets of the clique as masks; for r = 3, its bits
        if r > 2:
            subsets = []
            x = clique
            while x:
                low = x & -x
                subsets.append(low)
                x ^= low
            if r > 3:
                subsets = [sum(sub) for sub in combinations(subsets, r - 2)]
        else:
            subsets = (0,) if r == 2 else ()
        x = extenders
        while x:
            vbit = x & -x
            x ^= vbit
            cand = x  # the extenders above v
            for sub in subsets:
                cand &= ext.get(sub | vbit, 0)
                if not cand:
                    break
            if cand and m + cand.bit_count() >= lo:
                stack.append((clique | vbit, cand))
    return counts


def enumerate_cliques(h: Hypergraph, s: int) -> Iterator[int]:
    """An iterator over the s-cliques of ``h`` as vertex masks, in colex order.

    The walk builds and sorts the whole list before this returns, so an s
    below r raises at the call, not at the first ``next``.
    """
    if s < h.r:
        raise ValueError(f"clique size s={s} below uniformity r={h.r}")
    found: list[int] = []
    _walk(h, s, s, found=found)
    found.sort()
    return iter(found)


def count_cliques(h: Hypergraph, s: int, per_vertex: bool = False) -> CliqueCount:
    """K_s^r(h), exactly; with K_s^r(u, h) per vertex when requested."""
    if s < h.r:
        raise ValueError(f"clique size s={s} below uniformity r={h.r}")
    tally = [0] * h.n if per_vertex else None
    total = _walk(h, s, s, tally=tally)[s]
    pv = {v + 1: c for v, c in enumerate(tally)} if tally is not None else None
    return CliqueCount(s=s, total=total, per_vertex=pv)


def clique_census(h: Hypergraph, max_s: int) -> dict[int, int]:
    """K_s^r(h) for every s in r..max_s, via a single search."""
    if max_s < h.r:
        return {}
    return _walk(h, h.r, max_s)
