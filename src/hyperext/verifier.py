"""Desk-scale exhaustive verification of the extremal statements.

The search space is reduced to stable hypergraphs: shifting never
decreases clique counts and never increases the matching number, so the
maximum of K_s^r over all r-graphs with ν <= k is attained on a stable
one.  The downset walk of ``shifting.enumerate_stable`` is the only
search; the verifier takes only the maximal families from it, on
[min(n, r(k+1))] (``stable_with_matching_at_most`` says why), and both
the extremal cell and Proposition 3.2 read those alone
(``verify_proposition_3_2`` says why for the latter).  The verifier
hands the walk its ν <= k test as blocker sets, perfect-matching
patterns carried onto the span, so the walk runs no ν search.  Both
hand one ``core.Budget`` to the walk and the regime-III descent; the
extremal cell also re-checks ν of its witness with a search from that
budget.

Every family the extremal cell values is a downset of ≺, and there the
cliques need no walk.  An s-set of a downset F is a clique iff its top
r vertices form an edge e: the i-th vertex of any r-subset of the s-set
is at most the i-th of e, so every r-subset lies below e in ≺ and is an
edge.  The cliques with top r vertices e pick their other s - r
vertices below min(e), so K_s(F) is the sum over e in F of
C(min(e) - 1, s - r) (``_clique_weight``).  The regime-III descent
takes a ≺-maximal edge m from a downset, so it subtracts the weight of
m.  ``cliques.count_cliques``, the walk for any host, runs once per
cell: it re-counts the witness, and a count that differs from the sum
is a broken invariant.
"""

from __future__ import annotations

import json
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import comb
from typing import Iterator

from .cliques import count_cliques, enumerate_cliques
from .core import Budget, ColoredFamily, Hypergraph, iter_bits, serialize
from .extremal import (
    ExtremalParams,
    build_extremal_family,
    rainbow_hypothesis_check,
    reaches_regime_threshold,
    theorem_bound,
)
from .matchings import (
    find_rainbow_matching,
    has_matching_at_most,
    perfect_matching_patterns,
)
from .randgen import random_family_above_edge_threshold
from .shifting import enumerate_stable, lifter, maximal_edges

CONFIRMED = "confirmed"
BOUND_NOT_YET_ACTIVE = "bound-not-yet-active"
COUNTEREXAMPLE = "counterexample"
INVARIANT_BROKEN = "invariant-broken"

SCHEMA = "hyperext/1"


@dataclass(frozen=True)
class VerificationReport:
    cell: dict
    regime: str | None
    claimed_bound: int
    observed_max: int
    witness: Hypergraph | None
    status: str
    nodes: int
    millis: int
    # regime III: the largest K_s^r below the bound (not in the JSON line)
    second_best: int | None = None

    def to_json_line(self, *, omit_timing: bool = False) -> str:
        obj = {
            "schema": SCHEMA,
            "cell": self.cell,
            "regime": self.regime,
            "claimed_bound": str(self.claimed_bound),
            "observed_max": str(self.observed_max),
            "status": self.status,
            "witness": serialize(self.witness) if self.witness else None,
            "nodes": self.nodes,
            "millis": 0 if omit_timing else self.millis,
        }
        return json.dumps(obj, separators=(",", ":"))


def stable_with_matching_at_most(
    n: int, r: int, k: int, *, budget: Budget | None = None
):
    """The ⊆-maximal stable r-graphs on [n] with ν <= k, via pruned
    downset search.

    Let t = r(k+1).  Any k+1 disjoint edges of a stable family can be
    moved into [t]: the order-preserving map of their union onto [t]
    lowers every vertex, so it sends each edge to one below it in ≺,
    again an edge (Frankl, "The shifting technique in extremal set
    theory", 1987).  So a stable family has ν <= k iff its edges inside
    [t] do, and no walk on [n] is needed:

    - n >= t: the walk runs on [t].  It asks whether an r-set e may join
      a stable family h with ν(h) <= k, where h ∪ {e} is again stable;
      k+1 disjoint edges of h ∪ {e} must use e, so e may join iff the
      edges of h that miss e have ν <= k-1.  Those edges lie in [t] - e,
      which has rk vertices, so k disjoint ones cover it.  The increasing
      map φ of [rk] onto [t] - e keeps ≺, since it sends the i-th
      smallest vertex of an r-set to the i-th smallest of its image; so
      the r-sets x of [rk] with φ(x) in h form a downset T.  A downset
      holds a perfect matching M of [rk] iff it holds down(M), the
      r-sets ≺ some edge of M, so T has one iff it holds a pattern of
      ``perfect_matching_patterns(r, k)``, the ≺-maximal edges of a
      ⊆-minimal down(M).  So e may join iff no pattern, carried onto
      [t] - e by φ, lies in h: the carried patterns are e's blocker sets
      (``enumerate_stable``), and the walk asks for them once per r-set.
      This needs h stable, not ν(h) <= k, so it holds also against the
      downsets with ν > k that the walk's prune asks about.  It answers
      as a ν search would, so the walk reaches, prunes and yields what it
      would with one.

      For n > t the maximal families on [n] are the lifts ext_n(G) of
      the maximal families G on [t] (``shifting.lift``).  ext_n(G) is a
      downset with trace G on [t], so ν <= k, and it is maximal: an
      r-set that could join it either lies inside [t], where G is
      maximal, or has its covers in it and so is in it already.  A
      maximal F on [n] has a maximal trace G (an r-set that could join
      the trace could join F), and F ⊆ ext_n(G), so F = ext_n(G).  All
      r-sets inside [t] come first in colex order, so the stream order
      is that of the walk on [n].
    - n < t: no r-graph on [n] has t disjoint vertices to hold k+1
      disjoint edges, so the complete r-graph is the one maximal family,
      and it is yielded alone.

    ``budget`` is spent by the walk on [t], one node per family it
    reaches, maximal or not.  The ν test runs no search, and the lift
    runs once per family the walk has charged, so neither is charged,
    and the budget the walk needs does not depend on n >= t.  For n < t
    the complete r-graph costs one node.  The r-sets that leave [t] are
    listed once per call, for every lift (``shifting.lifter``).  k >= 0.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got k={k}")
    budget = budget or Budget()
    t = r * (k + 1)
    if n < t:
        budget.spend()
        return iter([Hypergraph.complete(n, r)])

    patterns = perfect_matching_patterns(r, k)
    vertices = {f: list(iter_bits(f)) for p in patterns for f in p}
    span = (1 << t) - 1

    def carried(e: int) -> list[tuple[int, ...]]:
        """The patterns carried onto [t] - e by the increasing map, each
        edge that patterns share carried once."""
        onto = [1 << v for v in iter_bits(span & ~e)]
        image = {f: sum([onto[v] for v in vs]) for f, vs in vertices.items()}
        return [tuple([image[f] for f in p]) for p in patterns]

    walk = enumerate_stable(t, r, carried, budget=budget)
    if n == t:
        return walk
    ext = lifter(t, n, r)
    return (ext(g) for g in walk)


def _clique_weight(e: int, r: int, s: int) -> int:
    """C(min(e) - 1, s - r): the s-cliques of a downset holding the edge
    ``e`` whose top r vertices are ``e``."""
    return comb((e & -e).bit_length() - 1, s - r)


def _descend(
    h: Hypergraph,
    value: int,
    s: int,
    bound: int,
    seen: set[tuple[int, ...]],
    budget: Budget,
) -> Iterator[tuple[Hypergraph, int]]:
    """Yield every removal of one maximal edge from the downset ``h``,
    whose K_s^r is ``value``, with its K_s^r, and onward from each such
    child still at or above ``bound``.

    A child D - {m} is again a downset, so its value is that of D less
    ``_clique_weight(m)``.  Families in ``seen`` are skipped, and every
    family yielded is added to it and spends one node of ``budget``.
    """
    stack = [(h, value)]
    while stack:
        top, top_value = stack.pop()
        for m in maximal_edges(top):
            child = Hypergraph._make(
                top.n, top.r, tuple([e for e in top.edges if e != m])
            )
            if child.edges in seen:
                continue
            seen.add(child.edges)
            budget.spend()
            val = top_value - _clique_weight(m, top.r, s)
            yield child, val
            if val >= bound:
                stack.append((child, val))


def verify_extremal_cell(
    n: int,
    k: int,
    r: int,
    s: int,
    *,
    budget: Budget | None = None,
) -> VerificationReport:
    """Max of K_s^r over (stable) r-graphs with ν <= k versus the bound.

    K_s^r only grows when edges are added and ν <= k survives their
    removal, so the maximum is attained on a ⊆-maximal stable family with
    ν <= k; cliques are counted only there.  Such a family F is a
    downset of ≺, so an s-set is a clique iff its top r vertices form an
    edge: the i-th vertex of any r-subset of the s-set is at most the
    i-th of its top r, so every r-subset lies below that edge in ≺.  So
    K_s^r(F) is the sum over the edges e of F of C(min(e) - 1, s - r),
    one binomial per edge and no clique walk.

    In regime III the second-maximum gap is verified as well: a gap
    violation is reported as a counterexample.  The second best is the
    largest K_s^r below the bound over all stable families with ν <= k.
    Each such family F lies in a maximal one, M.  If K(M) is below the
    bound, M is counted.  Otherwise some ≺-maximal edge m of M lies
    outside F (else the downset F would contain M), so F ⊆ M - {m},
    again a downset; repeating gives a chain from M down to F that
    removes one maximal edge per step.  K_s^r falls weakly along it, from
    at least the bound at M to below it at F, so the first member below
    the bound has a value of at least K(F), and every member before it
    is at or above the bound.  The search therefore descends from every
    counted family at or above the bound through all its removals of one
    maximal edge, onward from each child still at or above the bound,
    and takes the values of the children below it: it meets that first
    member.  One step, D - {m}, is not enough where D - {m} still
    attains the bound.  Each child D - {m} is a downset whose s-cliques
    are those of D less the ones with top r vertices m, so its value is
    that of D less C(min(m) - 1, s - r).

    When n >= max(r, ak+a-1), the extremal family of the regime is itself
    stable with ν <= k, so the maximum is at least the bound; a smaller
    maximum means the search is broken and is reported as
    ``invariant-broken``, never as a verdict.  So is a witness that
    fails a fresh ``has_matching_at_most(witness, k)``, a search: the
    walk's pattern table and prune are not asked.  So is a witness
    whose ``count_cliques``, a clique walk that does not assume a
    downset and the one it runs per cell, differs from its sum.

    ``budget`` covers the walk, one node per family it reaches, the
    descent, one node per family valued, and the witness's ν re-check,
    one per search node; the sums and the witness's clique walk spend
    none.  The walk's share does not depend on n >= r(k+1); the
    re-check and the descent run on [n].
    """
    start = time.monotonic()
    params = ExtremalParams(n=n, k=k, r=r, s=s)
    bound, regime, gap_bound = theorem_bound(params)

    observed = -1
    witness: Hypergraph | None = None
    second_best = 0
    nodes = 0
    descended: set[tuple[int, ...]] = set()
    budget = budget or Budget()
    for h in stable_with_matching_at_most(n, r, k, budget=budget):
        nodes += 1
        val = sum([_clique_weight(e, r, s) for e in h.edges])
        if val > observed:
            observed = val
            witness = h
        if val < bound:
            second_best = max(second_best, val)
        elif regime == "III":
            for _, below in _descend(h, val, s, bound, descended, budget):
                nodes += 1
                if below < bound:
                    second_best = max(second_best, below)

    a = params.level
    past_threshold = reaches_regime_threshold(params)
    if witness is not None and (
        not has_matching_at_most(witness, k, budget)
        or count_cliques(witness, s).total != observed
    ):
        status = INVARIANT_BROKEN
    elif n >= max(r, a * k + a - 1) and observed < bound:
        status = INVARIANT_BROKEN
    elif regime == "III" and past_threshold and second_best > gap_bound:
        status = COUNTEREXAMPLE
    elif observed == bound:
        status = CONFIRMED
    elif observed > bound:
        status = COUNTEREXAMPLE if past_threshold else BOUND_NOT_YET_ACTIVE
    else:
        status = BOUND_NOT_YET_ACTIVE

    millis = int((time.monotonic() - start) * 1000)
    return VerificationReport(
        cell={"n": n, "k": k, "r": r, "s": s},
        regime=regime,
        claimed_bound=bound,
        observed_max=observed,
        witness=witness,
        status=status,
        nodes=nodes,
        millis=millis,
        second_best=second_best if regime == "III" else None,
    )


def verify_rainbow_cell(
    n: int, k: int, r: int, t: int, trials: int, seed: int = 0
) -> VerificationReport:
    """Random hypothesis-passing families must contain a rainbow matching;
    the boundary family (every color the level-1 extremal family on k-1)
    must not, confirming strictness of the hypothesis.  ``trials`` >= 0
    and r <= t <= k+r-2, else ``ValueError``."""
    if trials < 0:
        raise ValueError(f"need trials >= 0, got trials={trials}")
    if not r <= t <= k + r - 2:
        raise ValueError(f"need r <= t <= k+r-2, got t={t}, r={r}, k={k}")
    start = time.monotonic()
    rng = random.Random(seed)
    expected = trials + 1
    good = 0
    nodes = 0
    for _ in range(trials):
        fam = random_family_above_edge_threshold(rng, n, r, k)
        nodes += 1
        if all(rainbow_hypothesis_check(fam, t)) and find_rainbow_matching(fam):
            good += 1
    # boundary: all colors equal to the head-(k-1) family
    if k >= 2:
        boundary_member = build_extremal_family(n, k - 1, r, 1)
    else:
        boundary_member = Hypergraph._make(n, r, ())
    boundary = ColoredFamily(n, r, (boundary_member,) * k)
    nodes += 1
    if find_rainbow_matching(boundary) is None:
        good += 1
    status = CONFIRMED if good == expected else COUNTEREXAMPLE
    millis = int((time.monotonic() - start) * 1000)
    return VerificationReport(
        cell={"n": n, "k": k, "r": r, "t": t, "trials": trials, "seed": seed},
        regime=None,
        claimed_bound=expected,
        observed_max=good,
        witness=None,
        status=status,
        nodes=nodes,
        millis=millis,
    )


def verify_proposition_3_2(
    n: int, k: int, r: int, s: int, *, budget: Budget | None = None
) -> VerificationReport:
    """Stable, ν <= k, every edge in an s-clique => every edge has at
    least a = floor((s-r)/k)+1 vertices in [rk+a-1].

    The precondition is not monotone, but the edges it lets in are read
    off the maximal families.  For a stable F with ν(F) <= k, let F_s be
    the edges of F in an s-clique of F.  F_s is stable: lowering a vertex
    x of an edge e ⊆ C, C an s-clique, to y gives an edge inside C if
    y ∈ C, else inside C - x + y, an s-clique since F is a downset.  F_s
    has ν <= k and meets the precondition, since every s-clique of F is
    one of F_s.  A family G that meets it lies in a maximal M, and each
    s-clique of G is one of M, so G ⊆ M_s.  So the edges of the families
    that meet the precondition are those of the M_s, M maximal, and the
    conclusion, a property of single edges, holds on all of them iff it
    holds on every M_s.

    ``observed_max`` counts the violating edges over all M_s, ``witness``
    is the first M_s with one (a family that meets the precondition),
    and ``nodes`` counts the maximal families.  ``budget`` covers the
    walk, as in ``verify_extremal_cell``.
    """
    start = time.monotonic()
    if not k + r <= s <= r * k + r - 1:
        raise ValueError(f"need k+r <= s <= rk+r-1, got s={s}, k={k}, r={r}")
    a = (s - r) // k + 1
    head_mask = (1 << (r * k + a - 1)) - 1
    violations = 0
    nodes = 0
    witness = None
    for h in stable_with_matching_at_most(n, r, k, budget=budget):
        nodes += 1
        cliques = list(enumerate_cliques(h, s))
        core = [e for e in h.edges if any(c & e == e for c in cliques)]
        bad = sum(1 for e in core if (e & head_mask).bit_count() < a)
        violations += bad
        if bad and witness is None:
            witness = Hypergraph._make(n, r, tuple(core))
    status = CONFIRMED if violations == 0 else COUNTEREXAMPLE
    millis = int((time.monotonic() - start) * 1000)
    return VerificationReport(
        cell={"n": n, "k": k, "r": r, "s": s},
        regime=None,
        claimed_bound=0,
        observed_max=violations,
        witness=witness,
        status=status,
        nodes=nodes,
        millis=millis,
    )


def _cell_worker(cell: tuple[int, int, int, int]) -> VerificationReport:
    n, k, r, s = cell
    return verify_extremal_cell(n, k, r, s)


def run_extremal_sweep(
    cells: list[tuple[int, int, int, int]], jobs: int = 1
) -> Iterator[VerificationReport]:
    """Run independent cells in ``jobs`` >= 1 processes.  ``jobs`` is
    checked at the call; the iterator returned yields the reports in
    cell-key order, each once it and the cells before it are done,
    regardless of completion order.  A cell that raises ends it there."""
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    ordered = sorted(set(cells))
    if jobs == 1:
        return map(_cell_worker, ordered)
    return _pooled(ordered, jobs)


def _pooled(
    cells: list[tuple[int, int, int, int]], jobs: int
) -> Iterator[VerificationReport]:
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(_cell_worker, cells)
