"""The shifting operator S_ij, stabilization, stable-family enumeration,
and the lift of a stable family to a larger vertex set.

S_ij replaces vertex j by vertex i in an edge when i is absent and the
replacement is not already an edge; it preserves edge count, never
decreases clique counts, and never increases the matching number.  A
stable r-graph is fixed by every S_ij with i < j, equivalently a downset
of the sorted-componentwise precedence order ≺ on r-sets.

``shift`` builds a new hypergraph per step; ``stabilize`` applies each
S_ij in place on one edge set, indexed by vertex.  In place is exact:
every target of S_ij holds i and misses j, so no target is also a
source, and distinct sources have distinct targets, so the moves S_ij
lists before it applies any are the moves it makes at once.

``colex_order(n, r)`` lists the r-sets of [n] in colex order and gives
≺ on them as bit sets over their indices: the covers of each r-set,
the r-sets it covers, and both closures.  It is the one index of ≺ in
the library; the walk below and ``matchings.perfect_matching_patterns``
read it, on small [n] only.

``enumerate_stable`` walks the ⊆-maximal downsets that a blocker rule
builds from the empty family, ``blockers(e)`` listing the edge sets that
keep the r-set e out.  A family is a bit set over the colex indices of
the r-sets, and so is each blocker set, built once per r-set before
the walk starts.  The walk is a depth-first stack with one node per
family it reaches, each node holding its own state.  It skips every
subtree that holds no maximal family and spends one node of its
``core.Budget`` on each family it reaches; its docstring gives the
order and the proof.  A child whose skipped chain already rules it out
is never pushed, nor is any later sibling, so no node is spent on it.

``lift(g, n)`` extends a stable family g on [t] to the largest stable
family on [n] whose trace on [t] is g: an r-set e of [n] is in it iff
π(e), the r-set of [t] whose i-th vertex is min(e_i, t - r + i), is in
g.  It is built from the other side, as the union of the fibres
π⁻¹(f) of the edges f of g (``fibre``), each one base and every
choice of a top block, so no r-set of [n] outside the lift is listed.
A property closed under sub-downsets that depends only on the trace on
[t], such as ν <= k for t = r(k+1), has its maximal families on [n]
exactly the lifts of those on [t]; the verifier walks [t] alone for
that reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Callable, Container, Iterable, Iterator

from .core import Budget, Hypergraph, iter_bits, labels_from_mask, r_subsets


@dataclass(frozen=True)
class ShiftTrace:
    """Record of one stabilization run: only real moves are recorded."""

    applications: tuple[tuple[int, int, int], ...]
    rounds: int
    result: Hypergraph


def _moves(
    candidates: Iterable[int], present: Container[int], ibit: int, jbit: int
) -> list[int]:
    """The edges S_ij moves, listed from ``candidates``, which hold every
    edge through j: those that hold j and miss i, and whose target, with
    i in place of j, is not in ``present``.  ``shift`` and ``stabilize``
    both read S_ij from here."""
    flip = ibit | jbit
    return [e for e in candidates if e & flip == jbit and e ^ flip not in present]


def shift(h: Hypergraph, i: int, j: int) -> Hypergraph:
    """Apply S_ij to every edge; i and j are 1-indexed with i < j.

    ``h`` itself comes back when S_ij moves no edge."""
    if not 1 <= i < j <= h.n:
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={h.n}")
    ibit = 1 << (i - 1)
    jbit = 1 << (j - 1)
    moves = set(_moves(h.edges, h.edge_set, ibit, jbit))
    if not moves:
        return h
    flip = ibit | jbit
    return Hypergraph._make(
        h.n, h.r, tuple(sorted([e ^ flip if e in moves else e for e in h.edges]))
    )


def stabilize(h: Hypergraph) -> ShiftTrace:
    """Sweep all pairs (i, j), i < j, lexicographically until a fixpoint.

    Each application records ``(i, j, moved)`` with ``moved`` the number
    of edges S_ij moves, and only applications that move an edge are
    recorded; ``rounds`` counts the sweeps, the last one moving nothing.
    Terminates because each real move strictly decreases the sum of all
    vertex labels over all edges.

    The run changes one edge set and a per-vertex index in place,
    ``through[v]`` the edges that hold vertex v + 1, and builds one
    ``Hypergraph`` at the end.  Step (i, j) lists its moves from the
    edges that hold j (``_moves``) before it applies any, and applying
    them one by one is exactly the simultaneous S_ij of ``shift``: every
    target holds i and misses j, so no target is a source, and distinct
    sources have distinct targets, so no move removes another's source
    or fills another's target.
    """
    n = h.n
    present = set(h.edges)
    through: list[set[int]] = [set() for _ in range(n)]
    for e in h.edges:
        for v in iter_bits(e):
            through[v].add(e)
    apps: list[tuple[int, int, int]] = []
    rounds = 0
    while True:
        rounds += 1
        moved_this_round = False
        for i in range(1, n):
            ibit = 1 << (i - 1)
            for j in range(i + 1, n + 1):
                jbit = 1 << (j - 1)
                moves = _moves(through[j - 1], present, ibit, jbit)
                if not moves:
                    continue
                flip = ibit | jbit
                for e in moves:
                    f = e ^ flip
                    present.remove(e)
                    present.add(f)
                    for v in iter_bits(e ^ jbit):
                        on_v = through[v]
                        on_v.remove(e)
                        on_v.add(f)
                    through[j - 1].remove(e)
                    through[i - 1].add(f)
                apps.append((i, j, len(moves)))
                moved_this_round = True
        if not moved_this_round:
            break
    result = Hypergraph._make(n, h.r, tuple(sorted(present)))
    return ShiftTrace(tuple(apps), rounds, result)


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


def _dominated_sets(xs: list[int]) -> Iterator[int]:
    """All r-set masks S with S ≺ e (including e itself), for the sorted
    labels ``xs`` of e, in lexicographic order of their label lists.

    A stack node ``(idx, prev, mask)`` holds the labels of S chosen below
    ``idx`` in ``mask``, the last of them ``prev``.  Its children are
    pushed largest label first, so the smallest is popped first, and no
    recursion bounds r.
    """
    stack = [(0, 0, 0)]
    while stack:
        idx, prev, mask = stack.pop()
        if idx == len(xs):
            yield mask
            continue
        for y in range(xs[idx], prev, -1):
            stack.append((idx + 1, y, mask | (1 << (y - 1))))


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


def colex_order(
    n: int, r: int
) -> tuple[list[int], dict[int, int], list[int], list[list[int]], list[int], list[int]]:
    """The r-sets of [n] in colex order, and ≺ on them as bit sets over
    their indices: ``(elements, position, below, up, down, above)``.

    ``position[e]`` is the index of the r-set e.  ``below[i]`` holds the
    covers of element i (``_covers``), and ``up[i]`` lists the elements
    that element i covers, ascending.  ``down[i]`` holds element i and
    every element ≺ it, and ``above[i]`` element i and every element it
    precedes.  Covers come before an r-set in colex order, so ``down``
    is built in one ascending pass and ``above`` in one descending pass.
    Each bit set has C(n, r) bits, so this is for small [n] only.
    """
    elements = sorted(r_subsets(n, r))
    position = {e: i for i, e in enumerate(elements)}
    below = [0] * len(elements)
    up: list[list[int]] = [[] for _ in elements]
    down = [1 << i for i in range(len(elements))]
    for i, e in enumerate(elements):
        for f in _covers(e):
            c = position[f]
            below[i] |= 1 << c
            up[c].append(i)
            down[i] |= down[c]
    above = [0] * len(elements)
    for i in reversed(range(len(elements))):
        above[i] = reduce(or_, [above[u] for u in up[i]], 1 << i)
    return elements, position, below, up, down, above


def top_run(f: int, t: int) -> int:
    """The length of the run t, t - 1, ... at the top of the set ``f`` of
    [t]; for f = [t] it is t."""
    return t - (~f & ((1 << t) - 1)).bit_length()


def fibre(f: int, t: int, n: int) -> Iterator[int]:
    """π⁻¹(f): the r-sets e of [n] with π(e) = f, for an r-set ``f`` of
    [t], r <= t <= n, where π(e) is the r-set of [t] whose i-th vertex
    is min(e_i, t - r + i).

    Let j be the length of the run t, t - 1, ... at the top of f
    (``top_run``).  Then the fibre is (f without that run) ∪ T for every
    j-subset T of {t - j + 1, ..., n}, C(n - t + j, j) r-sets, yielded
    in ``itertools.combinations`` order of T.  Each such e has
    π(e) = f: t - j is not in f, so the i-th of f's vertices below the
    run is below t - r + i and π keeps it, and the m-th vertex of T is
    at least t - j + m, the cap of its coordinate, so π lowers it to
    t - j + m.  Conversely, if π(e) = f, the i-th vertex of f below the
    run is below t - r + i, so it is e_i, and each other e_i is at least
    its cap t - r + i >= t - j + 1.  The run may reach vertex 1
    (f = [t], t = r), leaving no vertex below it.
    """
    j = top_run(f, t)
    base = f & ((1 << (t - j)) - 1)
    for block in combinations(range(t - j, n), j):
        e = base
        for v in block:
            e |= 1 << v
        yield e


def lift(g: Hypergraph, n: int) -> Hypergraph:
    """ext_n(g): the largest downset on [n] whose trace on [g.n] is ``g``.

    ``g`` is stable on [t], t = g.n <= n, else ``ValueError``: a family
    on fewer vertices cannot hold g's edges.  ext_n(g) is the r-sets e
    of [n] with π(e) in g, so the union of the fibres (``fibre``) of
    g's edges, sorted into colex order.  π keeps ≺, since each
    coordinate min(e_i, t - r + i) grows with e_i; π(e) ≺ e; and π is
    the identity on the r-sets of [t], whose i-th vertex is at most
    t - r + i.  So {e : π(e) ∈ g} is a downset, as g is one, with trace
    g on [t], and it holds every downset F with that trace: for e in F,
    π(e) ≺ e lies in F and inside [t], so in g.  The cost is the size
    of the lift; no other r-set of [n] is listed.
    """
    t = g.n
    if n < t:
        raise ValueError(f"need t <= n, got t={t}, n={n}")
    edges = [e for f in g.edges for e in fibre(f, t, n)]
    return Hypergraph._make(n, g.r, tuple(sorted(edges)))


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
    blockers: Callable[[int], Iterable[tuple[int, ...]]],
    *,
    budget: Budget | None = None,
) -> Iterator[Hypergraph]:
    """Yield the ⊆-maximal stable r-graphs on [n], i.e. downsets of ≺,
    among those the blocker rule builds from the empty family.

    ``blockers(e)`` lists edge sets, each a tuple of distinct r-set
    masks of [n].  The r-set ``e``, all of whose covers are in a stable
    family, may join it iff the family holds no whole set on that list.
    A set held by a subfamily is held by the family, so what may join a
    family may join each subfamily that holds its covers, and the
    families the rule builds one r-set at a time are closed under
    sub-downsets (e.g. ν <= k).  ``blockers`` is asked once per r-set,
    in colex order, before the walk reaches its first family, and a
    mask on its list that is no r-set of [n] raises ``ValueError``.
    Each set on its list becomes a bit set p over the colex indices of
    the r-sets (``colex_order``), a mask repeated in it counted once,
    and a family D, as such a bit set, holds it iff ``p & D == p``.

    Each family D the rule builds is one node of a tree; its children
    are D plus one r-set after D's colex-last edge.  The colex-last edge
    of a downset is ≺-maximal in it, so every such family has exactly
    one parent, and the walk reaches each at most once.  D's candidates
    are the r-sets after its last edge whose covers are all in D.  Each
    candidate is asked about once at D, and a child inherits only the
    candidates accepted at D, plus the r-sets whose last missing cover
    it adds: a rejection at D holds for every superset.

    Order: D comes before its subtree, then its children's subtrees
    follow in descending candidate index.  Compared at the first r-set in
    colex order on which two families differ, the one without it comes
    first, which is the order of a per-element walk that tries excluding
    each r-set before including it.

    Only the ⊆-maximal families are yielded.  An r-set that could join D
    has its covers in D; it is either after D's last edge, hence a
    candidate of D or rejected above it, or it was a candidate of an
    ancestor, accepted there, that the ancestor skipped by going on to a
    larger child.  Call those ``skipped``; each lies before D's last
    edge, and none is ever added below D.

    The walk skips each subtree that holds no maximal family.  Let S(D)
    be the r-sets x with y ≺ x for some y that is skipped or was
    rejected on the way to D, at D included, and U(D) the other r-sets,
    a downset.  No family below D holds a skipped or a rejected r-set,
    and each is a downset, so each lies in U(D).  So if a skipped s may join U(D), it
    may join every F below D, which holds s's covers, and no such F is
    maximal: D is neither yielded nor expanded.  Otherwise, if D has no
    accepted candidate, U(D) = D and D is maximal.  Take the r-sets x
    outside D in colex order.  If a cover of x is outside D, it is in
    S(D), and so is x.  Else let A be the deepest node on the way to D
    whose last edge is before x; x's covers are in A, so x is a
    candidate of A or was rejected above it.  If A = D, it was
    rejected; otherwise A went on to a child after x, so x was rejected
    or skipped at A.  So the walk yields the maximal families in the
    order above.

    The walk is a depth-first stack of nodes, none changed once made.
    Each node carries its own D, S(D) as a bit set, its candidates and
    its skipped chain: the r-sets skipped on the way to D, newest first,
    as pairs (r-set, rest).  A node adds to its S(D) the r-sets above
    each candidate it rejects; a child starts from that and adds the
    r-sets above each candidate it skips, and its chain puts those
    candidates, newest first, ahead of D's.  The last child is pushed
    last, so it is popped first.  Skipped r-sets are asked newest first,
    stopping at the first acceptance; an r-set once rejected needs no
    second question, since the family only grows.  Two blocker rules
    that build the same families may answer differently against U(D),
    which need not be one of them; the one that lets more join there
    prunes more.

    The skipped-chain test runs when a child is pushed, not only when
    it is popped.  The child C adding accepted[pos], pos >= 1, starts
    from the S and the chain it is pushed with, and the walk asks that
    chain against the U they give before it pushes C.  If a skipped s
    may join it, neither C nor any later sibling is pushed, and no
    maximal family is lost.  A set that may join U may join every
    U' ⊆ U: a blocker set held by U' is held by U.  C's own rejections
    only grow its S, so the U it is popped with lies in the U it was
    pushed with, s may join that too, and C would be cut when popped.
    A later sibling starts from a larger S, hence a smaller U, and from
    a chain that holds C's, s included, so it would be cut as well.
    When a node is popped, the test runs again only if its own
    rejections grew its S.  Otherwise U and the chain are those it was
    pushed with, which passed: at the push for pos >= 1, and at the
    parent's pop for child 0, which starts from the parent's S and
    chain after the parent's rejections.  The root's chain is empty.

    ``budget`` is spent once per family the walk pushes, yielded or
    not, when it is popped and before its candidates are asked about;
    a child the push-time test leaves out costs nothing.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    budget = budget or Budget()
    elements, position, below, up, _, above = colex_order(n, r)
    # blocked[i]: the blocker sets of element i as bits, asked once
    # before the walk; OR sets the bit of a repeated mask once
    blocked = []
    for e in elements:
        sets = []
        for p in blockers(e):
            bits = 0
            for f in p:
                if f not in position:
                    raise ValueError(
                        f"blockers({e}) lists {f}, not a {r}-set of [{n}]"
                    )
                bits |= 1 << position[f]
            sets.append(bits)
        blocked.append(sets)

    def joins(family: int, i: int) -> bool:
        """Whether element i may join ``family``, both as index bits."""
        for p in blocked[i]:
            if p & family == p:
                return False
        return True

    def skips_a_joiner(shadow: int, skipped: tuple) -> bool:
        """Whether an r-set on the chain ``skipped`` may join U, the
        bits of ~shadow, a negative int."""
        while skipped and not joins(~shadow, skipped[0]):
            skipped = skipped[1]
        return bool(skipped)

    # a node: its family, S(family), its candidates and the r-sets
    # skipped on the way to it, a chain (r_set, rest) newest first
    stack = [(0, 0, [i for i, bits in enumerate(below) if not bits], ())]
    while stack:
        family, shadow, candidates, skipped = stack.pop()
        budget.spend()
        pushed_with = shadow  # the chain passed against this S
        accepted = []
        for c in candidates:
            if joins(family, c):
                accepted.append(c)
            else:
                shadow |= above[c]
        if shadow != pushed_with and skips_a_joiner(shadow, skipped):
            continue  # no family from here down is maximal
        if not accepted:
            yield Hypergraph._make(
                n, r, tuple([elements[i] for i in iter_bits(family)])
            )
        # the child adding accepted[pos] skips accepted[:pos]; the last
        # child is pushed last, so its subtree is walked first
        for pos, j in enumerate(accepted):
            if pos and skips_a_joiner(shadow, skipped):
                break  # it, and every later sibling, would be cut when popped
            child = family | 1 << j
            fresh = [u for u in up[j] if below[u] & child == below[u]]
            stack.append(
                (child, shadow, sorted(accepted[pos + 1:] + fresh), skipped)
            )
            shadow |= above[j]
            skipped = (j, skipped)
