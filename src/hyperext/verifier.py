"""Desk-scale exhaustive verification of the extremal statements.

The search space is reduced to stable hypergraphs: shifting never
decreases clique counts and never increases the matching number, so the
maximum of K_s^r over all r-graphs with ν <= k is attained on a stable
one.  The downset walk of ``shifting.enumerate_stable`` is the only
search; the verifier takes only the maximal families from it, on
[min(n, r(k+1))] (``stable_with_matching_at_most`` says why), and both
the extremal cell and Proposition 3.2 read those alone
(``verify_proposition_3_2`` says why for the latter).  Both hand one
``core.Budget`` to the walk, to every ν search inside it and to the
regime-III descent.
"""

from __future__ import annotations

import json
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .cliques import count_cliques, enumerate_cliques
from .core import Budget, ColoredFamily, Hypergraph, serialize
from .extremal import (
    ExtremalParams,
    build_extremal_family,
    rainbow_hypothesis_check,
    reaches_regime_threshold,
    theorem_bound,
)
from .matchings import find_rainbow_matching, has_matching_at_most
from .randgen import random_family_above_edge_threshold
from .shifting import enumerate_stable, lift, maximal_edges

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
      edges of h that miss e have ν <= k-1.  For n > t the maximal
      families on [n] are the lifts ext_n(G) of the maximal families G
      on [t] (``shifting.lift``).  ext_n(G) is a downset with trace G on
      [t], so ν <= k, and it is maximal: an r-set that could join it
      either lies inside [t], where G is maximal, or has its covers in
      it and so is in it already.  A maximal F on [n] has a maximal
      trace G (an r-set that could join the trace could join F), and
      F ⊆ ext_n(G), so F = ext_n(G).  All r-sets inside [t] come first
      in colex order, so the stream order is that of the walk on [n].
    - n < t: no r-graph on [n] has t disjoint vertices to hold k+1
      disjoint edges, so the complete r-graph is the one maximal family,
      and it is yielded alone.

    ``budget`` is spent by the walk on [t], one node per family it
    reaches, maximal or not, and by every ν search it asks, one node per
    search node; the lift is not charged, since it runs once per family
    the walk has charged.  So the budget a cell needs does not depend on
    n >= t.  For n < t the complete r-graph costs one node.  k >= 0.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got k={k}")
    budget = budget or Budget()
    t = r * (k + 1)
    if n < t:
        budget.spend()
        return iter([Hypergraph.complete(n, r)])

    def fits(h: Hypergraph, e: int) -> bool:
        rest = tuple([f for f in h.edges if not f & e])
        return has_matching_at_most(Hypergraph._make(t, r, rest), k - 1, budget)

    walk = enumerate_stable(t, r, fits, maximal=True, budget=budget)
    if n == t:
        return walk
    return (lift(g, n) for g in walk)


def _descend(
    h: Hypergraph, s: int, bound: int, seen: set[tuple[int, ...]], budget: Budget
) -> tuple[int, int]:
    """Count K_s^r on every removal of one maximal edge from ``h``, and
    onward from each such child still at or above ``bound``.

    Returns the largest value below ``bound`` met (0 if none) and the
    number of families counted.  Families in ``seen`` are skipped, and
    every family counted is added to it and spends one node of ``budget``.
    """
    best = counted = 0
    stack = [h]
    while stack:
        top = stack.pop()
        for m in maximal_edges(top):
            child = Hypergraph._make(
                top.n, top.r, tuple([e for e in top.edges if e != m])
            )
            if child.edges in seen:
                continue
            seen.add(child.edges)
            budget.spend()
            counted += 1
            val = count_cliques(child, s).total
            if val < bound:
                best = max(best, val)
            else:
                stack.append(child)
    return best, counted


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
    ν <= k; cliques are counted only there.

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
    attains the bound.

    When n >= max(r, ak+a-1), the extremal family of the regime is itself
    stable with ν <= k, so the maximum is at least the bound; a smaller
    maximum means the search is broken and is reported as
    ``invariant-broken``, never as a verdict.

    ``budget`` covers the walk, its ν searches and the descent, one node
    per family counted; clique counts run on families already charged.
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
        val = count_cliques(h, s).total
        if val > observed:
            observed = val
            witness = h
        if val < bound:
            second_best = max(second_best, val)
        elif regime == "III":
            below, counted = _descend(h, s, bound, descended, budget)
            second_best = max(second_best, below)
            nodes += counted

    a = params.level
    past_threshold = reaches_regime_threshold(params)
    if n >= max(r, a * k + a - 1) and observed < bound:
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
    must not, confirming strictness of the hypothesis."""
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
    walk and its ν searches, as in ``verify_extremal_cell``.
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
) -> list[VerificationReport]:
    """Run independent cells in ``jobs`` >= 1 processes, results ordered by
    cell key regardless of completion order."""
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    ordered = sorted(set(cells))
    if jobs == 1:
        return [_cell_worker(c) for c in ordered]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_cell_worker, ordered))
