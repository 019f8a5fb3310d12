"""Exact s-clique enumeration and counting for r-graphs.

An s-clique is an s-vertex set all of whose r-subsets are edges.  One
walk serves counting, the per-size census and enumeration.  It extends
partial cliques vertex by vertex in increasing label order; for each
(r-1)-subset of the host's edges a precomputed extension mask records
which vertices complete it to an edge, so candidate filtering is a
handful of bitwise ANDs per step.  The walk counts the cliques of every
size in a window and hands each clique of the top size to an optional
visitor: enumeration collects them, per-vertex counting tallies their
vertices, and plain counting holds none of them.
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

    Every partial set visited at depth >= r is itself a clique, because a
    vertex only enters the candidate mask after all (r-1)-subsets through
    it have been checked against the extension table.  A branch is cut
    once its depth plus its remaining candidates fall below ``lo``.
    """
    r = h.r
    counts = dict.fromkeys(range(lo, hi + 1), 0)
    if lo > h.n or not h.edges:
        return counts
    ext = _extension_table(h)
    full = h.full_mask
    chosen: list[int] = []

    def walk(mask: int, cand: int, above: int) -> None:
        m = len(chosen)
        if m >= lo:
            counts[m] += 1
            if m == hi:
                if visit is not None:
                    visit(mask)
                return
        pool = cand & above
        if m + pool.bit_count() < lo:
            return
        for v in iter_bits(pool):
            vbit = 1 << v
            new_cand = cand
            if r > 1 and m + 1 >= r - 1:
                for tup in combinations(chosen, r - 2):
                    t = vbit
                    for b in tup:
                        t |= 1 << b
                    new_cand &= ext.get(t, 0)
                    if not new_cand:
                        break
            chosen.append(v)
            walk(mask | vbit, new_cand, full & ~((vbit << 1) - 1))
            chosen.pop()

    walk(0, ext.get(0, 0) if r == 1 else full, full)
    del walk  # the closure refers to itself; unlink it for refcounting
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
