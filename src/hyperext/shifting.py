"""The shifting operator S_ij, stabilization, stable-family enumeration,
and the lift of a stable family to a larger vertex set.

S_ij replaces vertex j by vertex i in an edge when i is absent and the
replacement is not already an edge; it preserves edge count, never
decreases clique counts, and never increases the matching number.  A
stable r-graph is fixed by every S_ij with i < j, equivalently a downset
of the sorted-componentwise precedence order ≺ on r-sets.

``enumerate_stable`` walks those downsets that pass a predicate closed
under sub-downsets.  It takes one step per passing family: each family
holds its candidate list, the r-sets after its colex-last edge whose
covers (immediate ≺-predecessors) are all in it, kept up to date by
counting each r-set's missing covers.  A candidate the predicate rejects
is never asked about again below that family.  The families come in the
order of the plain per-element walk that excludes each r-set before it
includes it.  The ``maximal`` filter keeps the same families, and it
skips every subtree that holds none: an r-set passed over above a node
that the predicate accepts against U, an upper bound on every family
below the node, can join each of them.  This needs the predicate to be
antitone in the family; ``enumerate_stable`` states the contract and
says why.  The walk spends one node of its ``core.Budget`` per family
it reaches, yielded or not, and the predicate may spend from the same
budget.

``lift(g, n)`` extends a stable family g on [t] to the largest stable
family on [n] whose trace on [t] is g, in one colex pass over the
r-sets that leave [t]; ``lifter(t, n, r)`` lists those r-sets once for
many families.  A property closed under sub-downsets that depends only
on the trace on [t], such as ν <= k for t = r(k+1), has its maximal
families on [n] exactly the lifts of those on [t]; the verifier walks
[t] alone for that reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .core import Budget, Hypergraph, labels_from_mask, r_subsets


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


def _dominated_sets(
    xs: list[int], idx: int = 0, prev: int = 0, mask: int = 0
) -> Iterator[int]:
    """All r-set masks S with S ≺ e (including e itself), for the sorted
    labels ``xs`` of e; ``mask`` holds the labels of S chosen below
    ``idx``, the last of them ``prev``."""
    if idx == len(xs):
        yield mask
        return
    for y in range(prev + 1, xs[idx] + 1):
        yield from _dominated_sets(xs, idx + 1, y, mask | (1 << (y - 1)))


def stable_closure_check(h: Hypergraph) -> bool:
    """Downset characterization: every S ≺ E of an edge E is itself an edge."""
    present = h.edge_set
    for e in h.edges:
        for s in _dominated_sets(labels_from_mask(e)):
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


def lifter(t: int, n: int, r: int) -> Callable[[Hypergraph], Hypergraph]:
    """ext_n on the stable r-graphs on [t], t <= n: ``lifter(t, n, r)(g)``
    is ``lift(g, n)``.  The r-sets that leave [t] and their covers are
    listed once, for every family lifted."""
    leaving = [(e, _covers(e)) for e in sorted(r_subsets(n, r)) if e >> t]

    def ext(g: Hypergraph) -> Hypergraph:
        edges = list(g.edges)
        present = set(edges)
        for e, covers in leaving:
            if all(c in present for c in covers):
                edges.append(e)
                present.add(e)
        return Hypergraph._make(n, r, tuple(edges))

    return ext


def lift(g: Hypergraph, n: int) -> Hypergraph:
    """ext_n(g): the largest downset on [n] whose trace on [g.n] is ``g``.

    ``g`` is stable on [t], t = g.n <= n.  An r-set inside [t] is in
    ext_n(g) iff it is in ``g``; any other r-set is in it iff all its
    covers are.  Covers precede an r-set in colex order, and every r-set
    inside [t] precedes every one that leaves [t], so one ascending pass
    decides each r-set from those before it, and the edges come out in
    colex order.
    """
    return lifter(g.n, n, g.r)(g)


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
    budget: Budget | None = None,
) -> Iterator[Hypergraph]:
    """Yield the stable r-graphs on [n], i.e. the downsets of ≺, that pass.

    ``predicate(h, e)`` says whether the r-set ``e``, all of whose covers
    are edges of the stable family ``h``, may join ``h``.  It must be
    antitone in ``h`` for every stable ``h``, passing or not: if
    h' ⊆ h are stable, e's covers lie in h' and ``predicate(h, e)``
    holds, so does ``predicate(h', e)``.  Then passing, for a family the
    walk builds one accepted r-set at a time from the empty one, is
    closed under sub-downsets (e.g. ν <= k).

    Each passing family D is one node of a tree; its children are D plus
    one r-set after D's colex-last edge.  The colex-last edge of a downset
    is ≺-maximal in it, so every passing family has exactly one parent,
    and the walk reaches each once.  D's candidates are the r-sets after
    its last edge whose covers are all in D.  The predicate is asked once
    per candidate, with one ``Hypergraph`` for D, and a child inherits
    only the candidates accepted at D, plus the r-sets whose last missing
    cover it adds: a rejection at D holds for every superset.

    Order: D is yielded before its subtree, then its children's subtrees
    follow in descending candidate index.  Compared at the first r-set in
    colex order on which two families differ, the one without it comes
    first, which is the order of a per-element walk that tries excluding
    each r-set before including it.

    With ``maximal`` only the ⊆-maximal passing families are yielded.  An
    r-set that could join D has its covers in D; it is either after D's
    last edge, hence a candidate of D or rejected above it, or it was a
    candidate of an ancestor, accepted there, that the ancestor skipped
    by going on to a larger child.  Call those ``skipped``; each lies
    before D's last edge, and none is ever added below D.

    The walk skips each subtree that holds no maximal family.  Let U(D)
    be D, D's accepted candidates, and, in colex order, each r-set after
    D's last edge that has a cover outside D and all its covers in U(D);
    U(D) is a downset.  Every family F below D lies in U(D).  Take the
    r-sets x of F outside D in colex order; each is after D's last edge.
    If x has all its covers in D, it is a candidate of D or was rejected
    above D, and since it was accepted against a superset of D, it is an
    accepted candidate of D.  Otherwise its covers are in F, each in D or
    after D's last edge and so, by induction, in U(D); then x is in U(D).
    So if the predicate accepts a skipped s against U(D), it accepts s
    against every F below D, which holds s's covers, and no such F is
    maximal: D is neither yielded nor expanded.  Otherwise, if D has no
    accepted candidate, U(D) = D and D is maximal.  So the walk yields
    the maximal families in the order above and reaches fewer families
    than the full walk.  Skipped r-sets are asked newest first, stopping
    at the first acceptance; an r-set once rejected needs no second
    question, since the family only grows.  A predicate that accepts
    more against families that do not pass, as the verifier's ν test
    does, prunes more.

    ``budget`` is spent once per passing family the walk reaches, yielded
    or not, before the predicate is asked about its candidates; a
    predicate that spends from the same budget is charged on top.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    budget = budget or Budget()
    elements = sorted(r_subsets(n, r))
    position = {e: i for i, e in enumerate(elements)}
    # up[i]: the elements that element i covers, ascending;
    # missing[i]: the covers of element i not in the current family
    up: list[list[int]] = [[] for _ in elements]
    missing: list[int] = []
    for i, e in enumerate(elements):
        below = _covers(e)
        missing.append(len(below))
        for c in below:
            up[position[c]].append(i)

    included: list[int] = []
    skipped: list[int] = []

    def joins_upper(h: Hypergraph, accepted: list[int]) -> bool:
        """Whether the predicate accepts a skipped r-set, newest first,
        against U(h): ``h``, its accepted candidates, and each later r-set
        with a cover outside ``h`` and all its covers in U(h)."""
        if predicate is None:
            return True
        upper = h  # U(h) = h when no candidate is accepted
        if accepted:
            extra = list(accepted)
            left = missing.copy()
            for j in extra:
                for u in up[j]:
                    left[u] -= 1
                    if not left[u]:
                        extra.append(u)
            extra.sort()
            edges = h.edges + tuple([elements[j] for j in extra])
            upper = Hypergraph._make(n, r, edges)
        return any(predicate(upper, elements[c]) for c in reversed(skipped))

    # one frame per node on the path: its accepted candidates and the
    # position of the child being walked
    stack: list[list] = []
    candidates = [i for i, c in enumerate(missing) if not c]
    while True:
        budget.spend()
        h = Hypergraph._make(n, r, tuple(included))
        if predicate is None:
            accepted = candidates
        else:
            accepted = [c for c in candidates if predicate(h, elements[c])]
        if not maximal:
            yield h
        elif skipped and joins_upper(h, accepted):
            accepted = []  # no family from h down is maximal
        elif not accepted:
            yield h
        else:
            # children go from the last accepted candidate down, and each
            # skips the accepted candidates before it
            skipped.extend(accepted[:-1])
        stack.append([accepted, len(accepted)])
        # step to the next child of the deepest node that has one left,
        # undoing each child whose subtree is done
        while stack:
            frame = stack[-1]
            accepted, pos = frame
            if pos < len(accepted):
                included.pop()
                for u in up[accepted[pos]]:
                    missing[u] += 1
                if maximal and pos:
                    skipped.pop()  # the next child, accepted[pos - 1]
            if not pos:
                stack.pop()
                continue
            pos -= 1
            frame[1] = pos
            j = accepted[pos]
            included.append(elements[j])
            fresh = []
            for u in up[j]:
                missing[u] -= 1
                if not missing[u]:
                    fresh.append(u)
            candidates = sorted(accepted[pos + 1:] + fresh)
            break
        else:
            return
