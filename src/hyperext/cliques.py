"""Exact s-clique enumeration and counting for r-graphs.

An s-clique is an s-vertex set all of whose r-subsets are edges.  One
walk serves counting, the per-size census and enumeration.  It is a
depth-first stack of immutable nodes ``(clique, extenders)``: a clique
and the bit set of the vertices above its top vertex that extend it to
a larger clique.  Keeping only extenders above the top vertex builds
each clique once, by adding its vertices in increasing label order.  For
each (r-1)-subset of the host's edges a precomputed extension mask
records which vertices complete it to an edge, so a child's extenders
cost a handful of bitwise ANDs.  The walk counts the cliques of every
size in a window.  Those of the top size are counted at their parent, as
the number of its extenders, and get no node of their own; they are
built one at a time only for an optional visitor: enumeration collects
them, per-vertex counting tallies their vertices, and plain counting
holds none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator

from .core import Hypergraph, iter_bits


@dataclass(frozen=True)
class CliqueCount:
    """Total (and optionally per-vertex) number of s-cliques."""

    s: int
    total: int
    per_vertex: dict[int, int] | None = None


def _extension_table(h: Hypergraph) -> dict[int, int]:
    """Map each (r-1)-subset mask of an edge to the mask of completing vertices."""
    ext: dict[int, int] = {}
    for e in h.edges:
        m = e
        while m:
            low = m & -m
            sub = e ^ low
            ext[sub] = ext.get(sub, 0) | low
            m ^= low
    return ext


def _walk(
    h: Hypergraph, lo: int, hi: int, visit: Callable[[int], None] | None = None
) -> dict[int, int]:
    """Number of cliques of each size lo..hi; ``visit(mask)`` on each of size hi.

    A node ``(clique, extenders)`` is a clique of size below ``hi`` and
    the vertices above its top vertex that extend it.  A vertex w above v
    extends ``clique | v`` iff it extends the clique and completes each
    (r-1)-set S + v, for S an (r-2)-subset of the clique.  So the child
    that adds the extender v keeps the extenders above v that lie in
    every ``ext[S | v]``.  The (r-2)-subsets are built once per node, and
    only at nodes with extenders.  A node of size ``hi - 1`` counts its
    extenders as the cliques of size ``hi`` and pushes no child.  A node
    is cut once its size plus its extenders fall below ``lo``.
    """
    r = h.r
    counts = dict.fromkeys(range(lo, hi + 1), 0)
    if lo > h.n or not h.edges:
        return counts
    ext = _extension_table(h)
    stack = [(0, ext.get(0, 0) if r == 1 else h.full_mask)]
    while stack:
        clique, extenders = stack.pop()
        m = clique.bit_count()
        if m >= lo:
            counts[m] += 1
        if m + 1 == hi:
            counts[hi] += extenders.bit_count()
            if visit is not None:
                for v in iter_bits(extenders):
                    visit(clique | 1 << v)
            continue
        if not extenders or m + extenders.bit_count() < lo:
            continue
        bits = [1 << v for v in iter_bits(clique)]
        subsets = [sum(sub) for sub in combinations(bits, r - 2)] if r > 1 else []
        for v in iter_bits(extenders):
            vbit = 1 << v
            cand = extenders & -(vbit << 1)  # the extenders above v
            for sub in subsets:
                cand &= ext.get(sub | vbit, 0)
                if not cand:
                    break
            stack.append((clique | vbit, cand))
    return counts


def enumerate_cliques(h: Hypergraph, s: int) -> Iterator[int]:
    """Yield the s-cliques of ``h`` as vertex masks, in colex order."""
    if s < h.r:
        raise ValueError(f"clique size s={s} below uniformity r={h.r}")
    found: list[int] = []
    _walk(h, s, s, found.append)
    found.sort()
    return iter(found)


def count_cliques(h: Hypergraph, s: int, per_vertex: bool = False) -> CliqueCount:
    """K_s^r(h), exactly; with K_s^r(u, h) per vertex when requested."""
    if s < h.r:
        raise ValueError(f"clique size s={s} below uniformity r={h.r}")
    tally = [0] * h.n

    def visit(mask: int) -> None:
        for v in iter_bits(mask):
            tally[v] += 1

    total = _walk(h, s, s, visit if per_vertex else None)[s]
    pv = {v + 1: c for v, c in enumerate(tally)} if per_vertex else None
    return CliqueCount(s=s, total=total, per_vertex=pv)


def clique_census(h: Hypergraph, max_s: int) -> dict[int, int]:
    """K_s^r(h) for every s in r..max_s, via a single search."""
    if max_s < h.r:
        return {}
    return _walk(h, h.r, max_s)
