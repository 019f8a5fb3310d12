"""Shared oracles for the test suite.

These deliberately reimplement the slow, obvious definitions so the
optimized paths are checked against an independent route.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Iterable, Iterator

from hypothesis import strategies as st

import hyperext
from hyperext.cliques import count_cliques, enumerate_cliques
from hyperext.core import (
    Budget,
    ColoredFamily,
    Hypergraph,
    HypergraphFormatError,
    iter_bits,
    labels_from_mask,
    mask_from_labels,
    r_subsets,
)
from hyperext.extremal import (
    ExtremalParams,
    binom,
    closed_form_clique_count,
    reaches_regime_threshold,
    theorem_bound,
)
from hyperext.matchings import (
    Matching,
    RainbowMatching,
    find_matching,
    has_matching_at_most,
)
from hyperext.shifting import ShiftTrace, colex_order, precedes, shift

# one line per acceptance criterion, printed after the run so the
# verdicts survive pytest's output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@st.composite
def hosts(draw, max_edges: int | None = None) -> Hypergraph:
    """Random r-graphs with r in 1..4 and n <= 9, shrinking to the empty host.

    Without ``max_edges`` every r-set is kept or not by one drawn bit, so
    hosts are dense enough to hold large cliques.
    """
    r = draw(st.integers(1, 4))
    n = draw(st.integers(r, 9))
    universe = list(r_subsets(n, r))
    if max_edges is None:
        bits = draw(st.integers(0, (1 << len(universe)) - 1))
        edges = [e for i, e in enumerate(universe) if bits >> i & 1]
    else:
        edges = draw(
            st.lists(st.sampled_from(universe), unique=True, max_size=max_edges)
        )
    return Hypergraph.from_edge_masks(n, r, edges)


@st.composite
def colored_families(draw) -> ColoredFamily:
    """Random coloured r-graphs: r in 1..3, n <= 8 and k in 1..5 colours,
    each colour a copy of an earlier colour or a fresh edge list (possibly
    empty) inside a window of consecutive vertices, so that colours cover
    different vertex sets."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(r, 8))
    members: list[Hypergraph] = []
    for _ in range(draw(st.integers(1, 5))):
        if members and draw(st.booleans()):
            members.append(draw(st.sampled_from(members)))
            continue
        lo = draw(st.integers(0, n - r))
        hi = draw(st.integers(lo + r, n))
        universe = [e << lo for e in r_subsets(hi - lo, r)]
        edges = draw(st.lists(st.sampled_from(universe), unique=True, max_size=12))
        members.append(Hypergraph.from_edge_masks(n, r, edges))
    return ColoredFamily(n, r, tuple(members))


def perfbench_module(name: str):
    """A module of the benchmark, loaded from its file under perfbench/."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_in_fresh_interpreter(script: str) -> str:
    """The stdout of ``script`` run by a new Python process that imports
    this checkout's hyperext; a non-zero exit fails the calling test."""
    src = str(Path(hyperext.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def naive_clique_count(h: Hypergraph, s: int) -> int:
    """Test every s-subset of vertices directly against the definition."""
    total = 0
    for verts in combinations(range(h.n), s):
        if all(
            sum(1 << v for v in sub) in h.edge_set
            for sub in combinations(verts, h.r)
        ):
            total += 1
    return total


def extension_table_by_subsets(h: Hypergraph) -> dict[int, int]:
    """Map every (r-1)-subset of every edge to the mask of the vertices
    that complete it to an edge, below it as well as above."""
    ext: dict[int, int] = {}
    for e in h.edges:
        m = e
        while m:
            low = m & -m
            sub = e ^ low
            ext[sub] = ext.get(sub, 0) | low
            m ^= low
    return ext


def naive_matching_number(h: Hypergraph) -> int:
    """The largest number of pairwise disjoint edges, by trying every edge
    subset of each size.

    Sizes go up from 1 and stop at the first size with no disjoint
    subset: every subset of a matching is a matching.
    """
    best = 0
    for size in range(1, len(h.edges) + 1):
        if not any(_pairwise_disjoint(c) for c in combinations(h.edges, size)):
            break
        best = size
    return best


def _pairwise_disjoint(edges) -> bool:
    used = 0
    for e in edges:
        if e & used:
            return False
        used |= e
    return True


def find_matching_recursive(
    avail: list[int], need: int, r: int, budget: Budget
) -> list[int] | None:
    """``need`` pairwise-disjoint edges from ``avail`` (last pick first), or None.

    The ν search as plain recursion: one call per node, branching on each
    edge through the top covered vertex before dropping that vertex.
    """
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
            found = find_matching_recursive(
                [f for f in avail if not f & e], need - 1, r, budget
            )
            if found is not None:
                found.append(e)
                return found
    return find_matching_recursive([f for f in avail if not f & vbit], need, r, budget)


def matching_number_by_rounds(
    h: Hypergraph, budget: Budget | None = None
) -> tuple[int, Matching]:
    """ν(h) by one ``find_matching`` per target size, raised from 1 until
    the search fails; the last matching found is the witness."""
    budget = budget or Budget()
    best = Matching(())
    while True:
        found = find_matching(h, len(best) + 1, budget)
        if found is None:
            return len(best), best
        best = found


def _rainbow_picks_plain(
    fam: ColoredFamily,
    order: list[int],
    picks: list[tuple[int, int]],
    used: int,
    budget: Budget,
) -> bool:
    budget.spend()
    pos = len(picks)
    if pos == fam.k:
        return True
    ci = order[pos]
    for e in fam.members[ci].edges:
        if not e & used:
            picks.append((ci + 1, e))
            if _rainbow_picks_plain(fam, order, picks, used | e, budget):
                return True
            picks.pop()
    return False


def rainbow_matching_plain(
    fam: ColoredFamily, budget: Budget | None = None
) -> RainbowMatching | None:
    """The rainbow search as plain backtracking, with no memo: colours in
    ascending edge-count order, each colour's edges in their order, one
    budget node per call."""
    order = sorted(range(fam.k), key=lambda i: (len(fam.members[i].edges), i))
    picks: list[tuple[int, int]] = []
    if _rainbow_picks_plain(fam, order, picks, 0, budget or Budget()):
        picks.sort()
        return RainbowMatching(tuple(picks))
    return None


def rainbow_hypothesis_by_counts(fam: ColoredFamily, t: int) -> list[bool]:
    """``rainbow_hypothesis_check`` with one ``count_cliques`` walk per s."""
    n, r, k = fam.n, fam.r, fam.k
    reference = {
        s: closed_form_clique_count(n, k - 1, r, 1, s) if k >= 2 else 0
        for s in range(r, t + 1)
    }
    return [
        any(count_cliques(m, s).total > reference[s] for s in range(r, t + 1))
        for m in fam.members
    ]


def binomial_estimates_by_fractions(a: int, b: int, c: int) -> tuple:
    """Estimates (2) and (3) of ``binomial_inequality_suite`` in rational
    arithmetic, for a >= b >= c >= 1; (3) is None unless b > c."""
    ac, bc = binom(a, c), binom(b, c)
    eq2 = Fraction(bc) <= Fraction(b, a) ** c * ac
    eq3 = Fraction(ac) <= Fraction(a - c, b - c) ** c * bc if b > c else None
    return eq2, eq3


def from_edge_masks_by_loop(
    n: int, r: int, masks: Iterable[int], *, strict_duplicates: bool = False
) -> Hypergraph:
    """``Hypergraph.from_edge_masks`` as one loop that checks, dedupes
    and warns edge by edge, then sorts."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    full = (1 << n) - 1
    seen: set[int] = set()
    out: list[int] = []
    for m in masks:
        if m & ~full:
            raise ValueError(
                f"edge {labels_from_mask(m)} uses vertices above n={n}"
            )
        if m.bit_count() != r:
            raise ValueError(
                f"edge {labels_from_mask(m)} has cardinality "
                f"{m.bit_count()}, expected {r}"
            )
        if m in seen:
            if strict_duplicates:
                raise ValueError(f"duplicate edge {labels_from_mask(m)}")
            warnings.warn(
                f"duplicate edge {labels_from_mask(m)} dropped",
                stacklevel=2,
            )
            continue
        seen.add(m)
        out.append(m)
    out.sort()
    return Hypergraph(n, r, tuple(out))


def parse_by_ints(text: str, *, strict_duplicates: bool = False) -> Hypergraph:
    """``core.parse`` with every token read by ``int()``, range-checked
    and turned into a mask on every line, and each edge checked again
    by ``from_edge_masks_by_loop``."""
    header: tuple[int, int] | None = None
    masks: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            nums = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise HypergraphFormatError(f"line {lineno}: {exc}") from None
        if header is None:
            if len(nums) != 2:
                raise HypergraphFormatError(
                    f"line {lineno}: header must be 'n r', got {line!r}"
                )
            n, r = nums
            if not 1 <= r <= n:
                raise HypergraphFormatError(
                    f"line {lineno}: need 1 <= r <= n, got n={n}, r={r}"
                )
            header = (n, r)
            continue
        n, r = header
        if any(v < 1 or v > n for v in nums):
            raise HypergraphFormatError(
                f"line {lineno}: vertex label out of range [1, {n}]"
            )
        mask = mask_from_labels(nums)
        if mask.bit_count() != r:
            raise HypergraphFormatError(
                f"line {lineno}: edge cardinality {mask.bit_count()} after "
                f"vertex dedup, expected {r}"
            )
        masks.append(mask)
    if header is None:
        raise HypergraphFormatError("missing 'n r' header line")
    try:
        return from_edge_masks_by_loop(
            *header, masks, strict_duplicates=strict_duplicates
        )
    except ValueError as exc:
        raise HypergraphFormatError(str(exc)) from None


def serialize_by_labels(h: Hypergraph) -> str:
    """``core.serialize`` with one ``labels_from_mask`` per edge and one
    ``str()`` per vertex of every edge."""
    lines = [f"{h.n} {h.r}"]
    for e in h.edges:
        lines.append(" ".join(str(v) for v in labels_from_mask(e)))
    return "\n".join(lines) + "\n"


def dominated_sets_recursive(
    xs: list[int], idx: int = 0, prev: int = 0, mask: int = 0
) -> Iterator[int]:
    """All r-set masks S with S ≺ e (including e itself), for the sorted
    labels ``xs`` of e, by one recursion level per label of S."""
    if idx == len(xs):
        yield mask
        return
    for y in range(prev + 1, xs[idx] + 1):
        yield from dominated_sets_recursive(xs, idx + 1, y, mask | (1 << (y - 1)))


def stable_by_dominated_sets(h: Hypergraph) -> bool:
    """The downset definition in full: every S ≺ E of every edge E is an
    edge, each down(E) listed by ``dominated_sets_recursive``."""
    present = h.edge_set
    return all(
        s in present
        for e in h.edges
        for s in dominated_sets_recursive(labels_from_mask(e))
    )


def naive_downset_count(n: int, r: int) -> int:
    """Count downsets of the precedence poset by brute force over subsets."""
    elements = [
        sum(1 << (v - 1) for v in c) for c in combinations(range(1, n + 1), r)
    ]
    m = len(elements)
    assert m <= 12, "oracle only for tiny posets"
    count = 0
    for bits in range(1 << m):
        chosen = [elements[i] for i in range(m) if bits >> i & 1]
        chosen_set = set(chosen)
        if all(
            all(elements[i] in chosen_set or not precedes(elements[i], e)
                for i in range(m))
            for e in chosen
        ):
            count += 1
    return count


def naive_stable_families(n: int, r: int, predicate=None, maximal=False):
    """The stable r-graphs on [n] that pass, by a per-element walk.

    The r-sets are taken in colex order.  Each is first left out, then
    put in if every r-set below it in ≺ is in and ``predicate(h, e)``
    accepts it.  With ``maximal``, an r-set left out that could have
    been put in stays on a stack, and a finished family is yielded iff
    the predicate, asked again with the whole family, rejects every
    r-set on the stack.
    """
    elements = sorted(r_subsets(n, r))
    below = [
        [f for f in elements[:i] if precedes(f, e)] for i, e in enumerate(elements)
    ]
    included: list[int] = []
    included_set: set[int] = set()
    addable: list[int] = []

    def accepts(e: int) -> bool:
        return predicate is None or predicate(
            Hypergraph._make(n, r, tuple(included)), e
        )

    def walk(idx: int):
        if idx == len(elements):
            if not maximal or not any(accepts(e) for e in reversed(addable)):
                yield Hypergraph._make(n, r, tuple(included))
            return
        e = elements[idx]
        ok = all(f in included_set for f in below[idx]) and accepts(e)
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


def enumerate_stable_pushing_every_child(n, r, blockers, *, budget=None):
    """``shifting.enumerate_stable`` without its push-time test: every
    accepted candidate of a node is pushed as a child, and each node
    runs the skipped-chain test when popped.  The same maximal families
    in the same order, from more families reached.
    """
    budget = budget or Budget()
    elements, position, below, up, _, above = colex_order(n, r)
    blocked = [
        [sum({1 << position[f] for f in p}) for p in blockers(e)]
        for e in elements
    ]

    def joins(family: int, i: int) -> bool:
        return all(p & family != p for p in blocked[i])

    stack = [(0, 0, [i for i, bits in enumerate(below) if not bits], ())]
    while stack:
        family, shadow, candidates, skipped = stack.pop()
        budget.spend()
        accepted = []
        for c in candidates:
            if joins(family, c):
                accepted.append(c)
            else:
                shadow |= above[c]
        rest = skipped
        while rest and not joins(~shadow, rest[0]):
            rest = rest[1]
        if rest:
            continue
        if not accepted:
            yield Hypergraph._make(
                n, r, tuple([elements[i] for i in iter_bits(family)])
            )
        for pos, j in enumerate(accepted):
            child = family | 1 << j
            fresh = [u for u in up[j] if below[u] & child == below[u]]
            stack.append(
                (child, shadow, sorted(accepted[pos + 1:] + fresh), skipped)
            )
            shadow |= above[j]
            skipped = (j, skipped)


def lift_by_covers(g: Hypergraph, n: int) -> Hypergraph:
    """ext_n(g), the largest downset on [n] whose trace on [t] = [g.n]
    is the stable ``g``, by covers.

    An r-set inside [t] is in it iff it is in ``g``; any other r-set is
    in it iff every r-set that lowers one of its vertices by one step is.
    Those come before it in colex order, and every r-set inside [t]
    comes before every one that leaves [t], so one ascending pass
    decides each r-set from those before it.
    """
    t, r = g.n, g.r
    edges = list(g.edges)
    present = set(edges)
    for e in sorted(r_subsets(n, r)):
        if e >> t:
            covers = [
                e ^ (3 << (v - 1))
                for v in range(1, n)
                if e >> v & 1 and not e >> (v - 1) & 1
            ]
            if all(c in present for c in covers):
                edges.append(e)
                present.add(e)
    return Hypergraph._make(n, r, tuple(edges))


def project(e: int, t: int) -> int:
    """π_t(e): the r-set of [t] whose i-th vertex is min(e_i, t - r + i),
    for an r-set ``e`` with r <= t, one r-set at a time.  The library
    goes the other way, from f to its fibre π⁻¹(f).

    The vertices it lowers are a top block of e: if e_i > t - r + i,
    then e_{i+1} >= e_i + 1 > t - r + i + 1.  If j of them are lowered,
    they become t-j+1..t and the rest are at most t - j, so j is the
    least j >= 0 with at most j vertices of e above t - j.
    """
    j = 0
    while (e >> (t - j)).bit_count() > j:
        j += 1
    low = (1 << (t - j)) - 1
    return (e & low) | ((1 << t) - 1 - low)


def shift_by_edges(h: Hypergraph, i: int, j: int) -> Hypergraph:
    """S_ij by its definition, one edge at a time: an edge that holds j
    and misses i goes to its target, with i in place of j, unless the
    target is already an edge of ``h``."""
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


def stabilize_by_shifts(h: Hypergraph) -> ShiftTrace:
    """``stabilize`` one ``shift`` at a time: every pair step builds a
    new hypergraph, and its moves are counted by a set difference."""
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


def nu_at_most_from_scratch(k: int):
    """The (h, e) walk predicate that tests ν(h ∪ {e}) <= k on the whole family."""

    def pred(h: Hypergraph, e: int) -> bool:
        grown = Hypergraph._make(h.n, h.r, tuple(sorted(h.edges + (e,))))
        return has_matching_at_most(grown, k)

    return pred


def avoiding(blockers):
    """The (h, e) predicate of the blocker rule of
    ``shifting.enumerate_stable``: e may join h iff h holds no whole set
    that ``blockers(e)`` lists.  Each r-set's list is asked for once."""
    lists: dict[int, list] = {}

    def pred(h: Hypergraph, e: int) -> bool:
        if e not in lists:
            lists[e] = list(blockers(e))
        return not any(h.edge_set.issuperset(p) for p in lists[e])

    return pred


def disjoint_edge_sets(n: int, r: int, size: int) -> list[tuple[int, ...]]:
    """Every set of ``size`` pairwise disjoint r-sets of [n], by trying
    every ``size`` r-sets; the empty set for size 0."""
    universe = sorted(r_subsets(n, r))
    return [m for m in combinations(universe, size) if _pairwise_disjoint(m)]


def nu_blockers_through(n: int, r: int, k: int):
    """Blocker sets for ν <= k-1 on the edges that miss e, the walk's ν
    test in ``stable_with_matching_at_most``: every k disjoint r-sets of
    [n] that miss e.

    On a family with ν <= k it agrees with
    ``nu_blockers_from_scratch``; on one with ν > k it may still let e
    join."""
    every = disjoint_edge_sets(n, r, k)
    return lambda e: [m for m in every if not any(f & e for f in m)]


def nu_blockers_from_scratch(n: int, r: int, k: int):
    """Blocker sets for ν(h ∪ {e}) <= k on the whole family: every k+1
    disjoint r-sets of [n], and every k disjoint r-sets that miss e."""
    whole = disjoint_edge_sets(n, r, k + 1)
    through = nu_blockers_through(n, r, k)
    return lambda e: whole + through(e)


def _cell_from_families(n: int, k: int, r: int, s: int, families) -> dict:
    """The verdict on a cell, with cliques counted on every given family.

    ``families`` must hold a maximizer and every family whose value is
    the largest below the bound, so the maximum and the second best are
    read off directly.  The status follows the rules of the verifier's
    docstring.
    """
    params = ExtremalParams(n=n, k=k, r=r, s=s)
    bound, regime, gap = theorem_bound(params)
    values = [count_cliques(h, s).total for h in families]
    observed = max(values)
    second = max((v for v in values if v < bound), default=0)
    a = {"I": 1, "II": params.a, "III": r}[regime]
    if n >= max(r, a * k + a - 1) and observed < bound:
        status = "invariant-broken"
    elif regime == "III" and n >= r * k + r - 1 and second > gap:
        status = "counterexample"
    elif observed == bound:
        status = "confirmed"
    elif observed > bound:
        above = reaches_regime_threshold(params)
        status = "counterexample" if above else "bound-not-yet-active"
    else:
        status = "bound-not-yet-active"
    return {
        "regime": regime,
        "claimed_bound": bound,
        "observed_max": observed,
        "status": status,
        "second_best": second if regime == "III" else None,
    }


def all_leaves_cell(n: int, k: int, r: int, s: int) -> dict:
    """``verify_extremal_cell`` the slow way: cliques counted at every
    stable family with ν <= k, not only at the maximal ones."""
    families = naive_stable_families(n, r, nu_at_most_from_scratch(k))
    return _cell_from_families(n, k, r, s, families)


def every_graph_cell(n: int, k: int, r: int, s: int) -> dict:
    """``verify_extremal_cell`` without the stable reduction: cliques
    counted on every r-graph on [n] with ν <= k."""
    universe = list(r_subsets(n, r))
    m = len(universe)
    assert m <= 15, "oracle only for tiny universes"
    graphs = (
        Hypergraph.from_edge_masks(
            n, r, [e for i, e in enumerate(universe) if bits >> i & 1]
        )
        for bits in range(1 << m)
    )
    families = (h for h in graphs if has_matching_at_most(h, k))
    return _cell_from_families(n, k, r, s, families)


def clique_edges(h: Hypergraph, s: int) -> Hypergraph:
    """h_s: the edges of ``h`` that lie in an s-clique of ``h``."""
    cliques = list(enumerate_cliques(h, s))
    return Hypergraph._make(
        h.n, h.r, tuple([e for e in h.edges if any(c & e == e for c in cliques)])
    )


def prop32_families(n: int, k: int, r: int, s: int):
    """The families Proposition 3.2 speaks of: every stable r-graph on
    [n] with ν <= k, kept iff each of its edges lies in an s-clique."""
    for h in naive_stable_families(n, r, nu_at_most_from_scratch(k)):
        if clique_edges(h, s).edges == h.edges:
            yield h


def all_families_prop32_cell(n: int, k: int, r: int, s: int) -> dict:
    """``verify_proposition_3_2`` the slow way: the violating edges are
    counted on every family that meets the precondition, not on the
    maximal families alone."""
    a = (s - r) // k + 1
    head_mask = (1 << (r * k + a - 1)) - 1
    violations = sum(
        1
        for h in prop32_families(n, k, r, s)
        for e in h.edges
        if (e & head_mask).bit_count() < a
    )
    return {
        "status": "confirmed" if violations == 0 else "counterexample",
        "observed_max": violations,
    }
