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

A sweep's unit of work is the (k, r) column, not the cell: every cell
with n >= t = r(k+1) reads the same walk on [t], and ``_column_pass``
runs it once for all of them.  Let π(e), for an r-set e of [n], be the
r-set of [t] whose i-th vertex is min(e_i, t - r + i).  Then ext_n(G),
the lift of a maximal family G on [t], holds the r-sets e with π(e) in
G (``shifting.lift`` gives the proof): it is the union of the fibres
π⁻¹(f), f in G, disjoint since π is a map.  So K_s(ext_n(G)) is the sum
over f in G of c_{n,s}(f), the weight C(min(e) - 1, s - r) summed over
the fibre of f.  The fibre (``shifting.fibre``) keeps the vertices of f
below its top run t, t - 1, ... and puts the run's j vertices anywhere
in {t - j + 1, ..., n}, so c_{n,s}(f) has a closed form on [t]
(``_span_weights``), and no cell lists the r-sets of [n].  A family is
lifted only to be a witness or to start a regime-III descent.
``verify_extremal_cell`` is the pass on a column of one cell; a
column's cells with n < t each take the complete r-graph, as
``stable_with_matching_at_most`` says.
"""

from __future__ import annotations

import json
import time
from math import comb
from typing import Iterable, Iterator, NamedTuple

from .cliques import count_cliques, enumerate_cliques
from .core import Budget, Hypergraph, iter_bits, r_subsets, serialize
from .extremal import ExtremalParams, reaches_regime_threshold, theorem_bound
from .matchings import has_matching_at_most, perfect_matching_patterns
from .shifting import enumerate_stable, lift, maximal_edges, top_run

CONFIRMED = "confirmed"
BOUND_NOT_YET_ACTIVE = "bound-not-yet-active"
COUNTEREXAMPLE = "counterexample"
INVARIANT_BROKEN = "invariant-broken"

SCHEMA = "hyperext/1"


class VerificationReport(NamedTuple):
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
      the maximal families G on [t] (``shifting.lift``): ext_n(G) holds
      the r-sets e of [n] whose image π(e), the r-set of [t] whose i-th
      vertex is min(e_i, t - r + i), lies in G.  π keeps ≺, π(e) ≺ e
      and π fixes the r-sets of [t], so that set is a downset with trace
      G, and every downset with trace G lies in it (``shifting.lift``
      gives the proof).  ext_n(G) has ν <= k, its trace on [t] being G,
      and it is maximal: an r-set e that could join it has π(e) ≺ e in
      it, so π(e) ∈ G and e is in it already.  A maximal F on [n] has a
      maximal trace G (an r-set that could join the trace could join
      F), and F ⊆ ext_n(G), so F = ext_n(G).  All r-sets inside [t]
      come first in colex order, so the stream order is that of the
      walk on [n].
    - n < t: no r-graph on [n] has t disjoint vertices to hold k+1
      disjoint edges, so the complete r-graph is the one maximal family,
      and it is yielded alone.

    ``budget`` is spent by the walk on [t], one node per family it
    reaches, maximal or not.  The ν test runs no search, and the lift
    runs once per family the walk has charged, so neither is charged,
    and the budget the walk needs does not depend on n >= t.  For n < t
    the complete r-graph costs one node.  Each lift is the union of the
    fibres of its family's edges (``shifting.fibre``), so it lists only
    its own edges, never the other r-sets of [n].  k >= 0.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got k={k}")
    budget = budget or Budget()
    t = r * (k + 1)
    if n < t:
        budget.spend()
        return iter([Hypergraph.complete(n, r)])

    patterns = perfect_matching_patterns(r, k)
    # the distinct pattern edges as vertex lists, and each pattern as
    # the positions of its edges among them
    edges = sorted({f for p in patterns for f in p})
    vertices = [list(iter_bits(f)) for f in edges]
    position = {f: i for i, f in enumerate(edges)}
    shapes = [[position[f] for f in p] for p in patterns]
    bits = [1 << v for v in range(t)]

    def carried(e: int) -> list[tuple[int, ...]]:
        """The patterns carried onto [t] - e by the increasing map, each
        edge that patterns share carried once."""
        onto = [b for b in bits if not e & b]
        images = [sum([onto[v] for v in vs]) for vs in vertices]
        return [tuple([images[i] for i in shape]) for shape in shapes]

    walk = enumerate_stable(t, r, carried, budget=budget)
    if n == t:
        return walk
    return (lift(g, n) for g in walk)


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
            child = Hypergraph(top.n, top.r, tuple([e for e in top.edges if e != m]))
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

    This is the one-cell case of ``_column_pass``, the pass a sweep runs
    once per (k, r) column: the walk, the sums, the descent and the
    re-checks are those of a column of one cell.
    """
    return _column_pass([_Cell(n, k, r, s)], budget)[0]


class _Cell:
    """One cell of a column pass: its bound, then what the pass found.

    It is made before the pass, so a cell whose parameters raise, n < r
    among them, does so before any walk.  ``table`` is its c_{n,s} on
    the span min(n, r(k+1)) (``_span_weights``), in closed form.
    ``best`` is the first family on the span whose lift attains
    ``observed``, and ``descended`` holds the families the regime-III
    descent has valued.  Only ``best`` and the families the descent
    starts from are lifted to [n].
    """

    def __init__(self, n: int, k: int, r: int, s: int):
        self.params = ExtremalParams(n=n, k=k, r=r, s=s)
        self.bound, self.regime, self.gap = theorem_bound(self.params)
        if n < r:
            raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
        self.table = _span_weights(min(n, r * (k + 1)), n, r, s)
        self.observed = -1
        self.best: Hypergraph | None = None
        self.second_best = 0
        self.nodes = 0
        self.descended: set[tuple[int, ...]] = set()

    def count(self, g: Hypergraph, budget: Budget) -> None:
        """Value the lift of the maximal family ``g`` on the span by the
        table; in regime III descend from the lift if the value is at
        or above the bound."""
        val = sum([self.table[f] for f in g.edges])
        self.nodes += 1
        if val > self.observed:
            self.observed = val
            self.best = g
        if val < self.bound:
            self.second_best = max(self.second_best, val)
        elif self.regime == "III":
            s = self.params.s
            for _, below in _descend(
                lift(g, self.params.n), val, s, self.bound, self.descended, budget
            ):
                self.nodes += 1
                if below < self.bound:
                    self.second_best = max(self.second_best, below)

    def report(self, budget: Budget, start: float) -> VerificationReport:
        """The verdict once every family is counted, the witness being
        the lift of ``best``; ``millis`` runs from ``start``."""
        params = self.params
        n, k, r, s = params.n, params.k, params.r, params.s
        a = params.level
        past_threshold = reaches_regime_threshold(params)
        observed, bound = self.observed, self.bound
        witness = None if self.best is None else lift(self.best, n)
        if witness is not None and (
            not has_matching_at_most(witness, k, budget)
            or count_cliques(witness, s).total != observed
        ):
            status = INVARIANT_BROKEN
        elif n >= max(r, a * k + a - 1) and observed < bound:
            status = INVARIANT_BROKEN
        elif self.regime == "III" and past_threshold and self.second_best > self.gap:
            status = COUNTEREXAMPLE
        elif observed == bound:
            status = CONFIRMED
        elif observed > bound:
            status = COUNTEREXAMPLE if past_threshold else BOUND_NOT_YET_ACTIVE
        else:
            status = BOUND_NOT_YET_ACTIVE
        return VerificationReport(
            cell={"n": n, "k": k, "r": r, "s": s},
            regime=self.regime,
            claimed_bound=bound,
            observed_max=observed,
            witness=witness,
            status=status,
            nodes=self.nodes,
            millis=int((time.monotonic() - start) * 1000),
            second_best=self.second_best if self.regime == "III" else None,
        )


def _span_weights(t: int, n: int, r: int, s: int) -> dict[int, int]:
    """c_{n,s}(f) = Σ C(min(e) - 1, s - r) over the fibre of f, the
    r-sets e of [n] with π(e) = f (``shifting.fibre``), for each r-set
    f of [t], t <= n, in closed form.

    Let j be the length of f's top run t, t - 1, ... (``top_run``).  If
    j < r, every member of the fibre keeps f's least vertex, and the
    fibre has C(n - t + j, j) members.  Else f is the top r-set, its
    fibre is the r-sets of {t - r + 1, ..., n}, and C(n - m, r - 1) of
    them have least vertex m.  Every weight goes through
    ``_clique_weight``.
    """
    table = {}
    for f in r_subsets(t, r):
        j = top_run(f, t)
        if j < r:
            table[f] = comb(n - t + j, j) * _clique_weight(f, r, s)
        else:
            table[f] = sum(
                [
                    comb(n - m, r - 1) * _clique_weight(1 << (m - 1), r, s)
                    for m in range(t - r + 1, n - r + 2)
                ]
            )
    return table


def _column_pass(
    cells: list[_Cell], budget: Budget | None = None
) -> list[VerificationReport]:
    """The reports on ``cells``, which share (k, r), in their order.

    Each span min(n, r(k+1)) is walked once for all its cells
    (``stable_with_matching_at_most``).  A cell values a family G on its
    span by its table: K_s^r(ext_n(G)) = Σ_{f∈G} c_{n,s}(f)
    (``_span_weights``), since ext_n(G) is the union of the fibres of
    G's edges (``shifting.lift``).  ``budget`` is spent as in
    ``verify_extremal_cell``, each walk once for all its cells, and
    every report's ``millis`` runs from the pass's start.
    """
    start = time.monotonic()
    budget = budget or Budget()
    k, r = cells[0].params.k, cells[0].params.r
    spans: dict[int, list[_Cell]] = {}
    for cell in cells:
        spans.setdefault(min(cell.params.n, r * (k + 1)), []).append(cell)
    for span, group in spans.items():
        for g in stable_with_matching_at_most(span, r, k, budget=budget):
            for cell in group:
                cell.count(g, budget)
    return [cell.report(budget, start) for cell in cells]


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
            witness = Hypergraph(n, r, tuple(core))
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


def run_extremal_sweep(
    cells: list[tuple[int, int, int, int]], jobs: int = 1
) -> Iterator[VerificationReport]:
    """Run the cells (n, k, r, s) one (k, r) column at a time, each column
    in one pass (``_column_pass``), over min(``jobs``, columns) processes,
    in-process when that is 1.  ``jobs`` >= 1 is checked at the call; the
    iterator returned yields the reports in cell-key order, each once its
    column is done.  A cell that raises ends it there."""
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    return _sweep(sorted(set(cells)), jobs)


def _sweep(
    ordered: list[tuple[int, int, int, int]], jobs: int
) -> Iterator[VerificationReport]:
    """The reports on the sorted distinct cells ``ordered`` up to the
    first whose parameters raise, then that cell's error."""
    failure = None
    columns: dict[tuple[int, int], list[_Cell]] = {}
    for i, (n, k, r, s) in enumerate(ordered):
        try:
            cell = _Cell(n, k, r, s)
        except ValueError as exc:
            failure, ordered = exc, ordered[:i]
            break
        columns.setdefault((k, r), []).append(cell)
    workers = min(jobs, len(columns))
    passes = (
        _pooled(columns.values(), workers)
        if workers > 1
        else map(_column_pass, columns.values())
    )
    # columns come in the order of their first cells, so each is taken
    # when the stream first needs one of its reports
    done: dict[tuple[int, int, int, int], VerificationReport] = {}
    for key in ordered:
        while key not in done:
            for report in next(passes):
                c = report.cell
                done[c["n"], c["k"], c["r"], c["s"]] = report
        yield done.pop(key)
    if failure is not None:
        raise failure


def _pooled(
    columns: Iterable[list[_Cell]], jobs: int
) -> Iterator[list[VerificationReport]]:
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(_column_pass, columns)
