"""The shifting operator S_ij, stabilization, and stable-family enumeration.

S_ij replaces vertex j by vertex i in an edge when i is absent and the
replacement is not already an edge; it preserves edge count, never
decreases clique counts, and never increases the matching number.  A
stable r-graph is fixed by every S_ij with i < j, equivalently a downset
of the sorted-componentwise precedence order on r-sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .core import Hypergraph, labels_from_mask, r_subsets


class EnumerationBudgetError(RuntimeError):
    """Stable-family enumeration exceeded its budget.

    ``yielded`` is the number of leaves the walk had reached, i.e. passing
    families whether or not they were yielded: with ``maximal`` most
    leaves are not.
    """

    def __init__(self, message: str, yielded: int):
        super().__init__(message)
        self.yielded = yielded


@dataclass(frozen=True)
class ShiftTrace:
    """Record of one stabilization run: only real moves are recorded."""

    applications: tuple[tuple[int, int, int], ...]
    rounds: int
    result: Hypergraph


def shift(h: Hypergraph, i: int, j: int) -> Hypergraph:
    """Apply S_ij to every edge; i and j are 1-indexed with i < j."""
    if not 1 <= i < j <= h.n:
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={h.n}")
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


def stabilize(h: Hypergraph) -> ShiftTrace:
    """Sweep all pairs (i, j), i < j, lexicographically until a fixpoint.

    Terminates because each real move strictly decreases the sum of all
    vertex labels over all edges.
    """
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


def is_stable(h: Hypergraph) -> bool:
    """Operator-based check: no S_ij moves any edge."""
    present = h.edge_set
    for e in h.edges:
        rest = h.full_mask & ~e
        m = e
        while m:
            jlow = m & -m
            m ^= jlow
            # candidate i-bits below j and outside e
            lower = rest & (jlow - 1)
            while lower:
                ibit = lower & -lower
                lower ^= ibit
                if (e ^ jlow) | ibit not in present:
                    return False
    return True


def precedes(e1: int, e2: int) -> bool:
    """Sorted-componentwise domination of r-set e1 by r-set e2."""
    a = labels_from_mask(e1)
    b = labels_from_mask(e2)
    if len(a) != len(b):
        raise ValueError(
            f"size mismatch: |e1|={len(a)}, |e2|={len(b)}"
        )
    return all(x <= y for x, y in zip(a, b))


def _dominated_sets(e: int) -> Iterator[int]:
    """All r-set masks S with S ≺ e (including e itself)."""
    xs = labels_from_mask(e)
    r = len(xs)

    def walk(idx: int, prev: int, mask: int) -> Iterator[int]:
        if idx == r:
            yield mask
            return
        for y in range(prev + 1, xs[idx] + 1):
            yield from walk(idx + 1, y, mask | (1 << (y - 1)))

    yield from walk(0, 0, 0)


def stable_closure_check(h: Hypergraph) -> bool:
    """Downset characterization: every S ≺ E of an edge E is itself an edge."""
    present = h.edge_set
    for e in h.edges:
        for s in _dominated_sets(e):
            if s not in present:
                return False
    return True


def _covers(e: int) -> list[int]:
    """Immediate ≺-predecessors: one element lowered by one step."""
    out = []
    for lab in labels_from_mask(e):
        if lab >= 2 and not e & (1 << (lab - 2)):
            out.append((e ^ (1 << (lab - 1))) | (1 << (lab - 2)))
    return out


def maximal_edges(h: Hypergraph) -> list[int]:
    """The ≺-maximal edges of a stable ``h``, colex order.

    An edge is maximal iff it is no immediate predecessor of another
    edge, and removing one maximal edge from a downset leaves a downset.
    """
    below = {c for e in h.edges for c in _covers(e)}
    return [e for e in h.edges if e not in below]


def enumerate_stable(
    n: int,
    r: int,
    predicate: Callable[[Hypergraph, int], bool] | None = None,
    *,
    maximal: bool = False,
    leaf_budget: int | None = None,
) -> Iterator[Hypergraph]:
    """Yield the stable r-graphs on [n], i.e. the downsets of ≺, that pass.

    ``predicate(h, e)`` says whether the r-set ``e``, all of whose covers
    are edges of ``h``, may join ``h``, a stable family that already
    passes.  Passing must be closed under taking sub-downsets (e.g.
    ν <= k): a rejected element is never included, which prunes the
    whole superset subtree.  With ``maximal`` only the ⊆-maximal passing
    families are yielded.  An excluded element whose covers were all
    included and that the predicate accepted when excluded stays on a
    stack; a leaf is maximal iff the predicate, asked again with the whole
    family, rejects every element on it (newest first, stopping at the
    first acceptance).  An element rejected when excluded needs no second
    question, since the family only grows.

    ``leaf_budget`` caps the leaves the walk reaches, yielded or not.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    elements = sorted(r_subsets(n, r))
    m = len(elements)
    covers = [_covers(e) for e in elements]

    included: list[int] = []
    included_set: set[int] = set()
    addable: list[int] = []
    reached = 0

    def family() -> Hypergraph:
        return Hypergraph._make(n, r, tuple(included))

    def charge() -> None:
        nonlocal reached
        reached += 1
        if leaf_budget is not None and reached > leaf_budget:
            raise EnumerationBudgetError(
                f"stable enumeration budget exceeded after "
                f"{reached - 1} leaves",
                reached - 1,
            )

    def is_maximal(h: Hypergraph) -> bool:
        if predicate is None:
            return not addable
        return not any(predicate(h, e) for e in reversed(addable))

    def walk(idx: int) -> Iterator[Hypergraph]:
        if idx == m:
            charge()
            h = family()
            if not maximal or is_maximal(h):
                yield h
            return
        e = elements[idx]
        ok = all(c in included_set for c in covers[idx]) and (
            predicate is None or predicate(family(), e)
        )
        # exclude branch first: families are emitted smallest-first
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
