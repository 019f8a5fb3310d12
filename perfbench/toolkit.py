"""The ``toolkit`` workload: a seeded stream of single library calls.

The stream is built from ``random.Random(seed)`` alone.  Its mix is fixed
(the seed only draws the hosts and shuffles the order), so every seed
loads the layers the same way.  Each call is timed on its own; its
output is checked after the clock stops.  Hosts are sized so that a
median call takes milliseconds; the slowest ones are the twenty
Proposition 3.2 cells (7, 1, 3, 4), which fixes the p99 call whatever
the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from hyperext import (
    ColoredFamily,
    ExtremalParams,
    Hypergraph,
    binomial_inequality_suite,
    build_extremal_family,
    clique_census,
    count_cliques,
    enumerate_cliques,
    find_rainbow_matching,
    has_matching_at_most,
    is_stable,
    matching_number,
    parse,
    serialize,
    stabilize,
    stable_closure_check,
    theorem_bound,
    verify_proposition_3_2,
)

CALLS_PER_KIND = 100
PROP_3_2_CELLS = [(7, 1, 2, 3), (8, 1, 2, 3), (6, 2, 2, 4), (7, 2, 2, 4), (7, 1, 3, 4)]


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _random_graph(rng: random.Random, n: int, r: int, p: float, extra=()) -> Hypergraph:
    masks = set(extra)
    for c in combinations(range(n), r):
        if rng.random() < p:
            masks.add(_mask(c))
    if not masks:
        masks.add(_mask(rng.sample(range(n), r)))
    return Hypergraph.from_edge_masks(n, r, sorted(masks))


def _rainbow_family(rng: random.Random, planted: bool):
    """k colours with a planted rainbow matching, or with none possible.

    Without one, every colour is a random part of the level-1 extremal
    family on k-1: their union has ν <= k-1, so no k disjoint edges exist
    and the search has to exhaust.
    """
    if planted:
        k, n, r = 7, 21, 3
        order = list(range(n))
        rng.shuffle(order)
        plant = [_mask(order[i * r:(i + 1) * r]) for i in range(k)]
        members = tuple(_random_graph(rng, n, r, 0.02, [plant[i]]) for i in range(k))
    else:
        k, n, r = 4, 12, 3
        host = build_extremal_family(n, k - 1, r, 1)
        members = tuple(
            Hypergraph.from_edge_masks(
                n, r, [e for e in host.edges if rng.random() < 0.3]
            )
            for _ in range(k)
        )
    return ColoredFamily(n, r, members), planted


def generate(seed: int) -> list[tuple]:
    """The op stream: ``(kind, args)`` pairs in a seeded order.

    The three clique calls on one host stay next to each other, so their
    answers can be checked against each other.
    """
    rng = random.Random(seed)
    groups: list[list[tuple]] = []
    for _ in range(CALLS_PER_KIND):
        h = _random_graph(rng, rng.randint(17, 21), 3, 0.45)
        s = rng.choice((4, 5))
        groups.append([(kind, (h, s)) for kind in ("count", "census", "enum")])
    for i in range(CALLS_PER_KIND):
        groups.append([("nu", (_random_graph(rng, rng.randint(26, 30), 3, 0.018),))])
        groups.append([("rainbow", _rainbow_family(rng, planted=i % 2 == 0))])
        groups.append([("stabilize", (_random_graph(rng, rng.randint(12, 14), 3, 0.3),))])
        groups.append([("roundtrip", (_random_graph(rng, rng.randint(20, 23), 3, 0.3),))])
        a = rng.randint(1000, 5000)
        b = rng.randint(a // 4, a // 2)
        p = rng.randint(1, 50)
        x = Fraction(1, rng.randint(p, 10 * p))
        groups.append([("ineq", (a, b, rng.randint(1, b - 1), p, x))])
        cell = PROP_3_2_CELLS[i % len(PROP_3_2_CELLS)]
        groups.append([("prop32", cell)])
        r = rng.randint(2, 3)
        k = rng.randint(1, 3)
        s = rng.randint(r, r * k + r - 1)
        n = rng.randint(r * k + r - 1, r * k + r + 2)
        groups.append([("bound", (n, k, r, s))])
    rng.shuffle(groups)
    return [op for group in groups for op in group]


def run_op(kind: str, args: tuple, call):
    """One library call; ``call(span, fn, *args)`` invokes and may trace it."""
    if kind == "count":
        h, s = args
        return call("cliques.count", count_cliques, h, s, per_vertex=True)
    if kind == "census":
        h, s = args
        return call("cliques.census", clique_census, h, s)
    if kind == "enum":
        h, s = args
        return call("cliques.enum", lambda: list(enumerate_cliques(h, s)))
    if kind == "nu":
        return call("matchings.matching_number", matching_number, args[0])
    if kind == "rainbow":
        return call("matchings.rainbow", find_rainbow_matching, args[0])
    if kind == "stabilize":
        return call("shifting.stabilize", stabilize, args[0])
    if kind == "roundtrip":
        text = call("core.serialize", serialize, args[0])
        return call("core.parse", parse, text)
    if kind == "ineq":
        return call("extremal.ineq", binomial_inequality_suite, *args)
    if kind == "prop32":
        return call("verifier.cell", verify_proposition_3_2, *args)
    if kind == "bound":
        return call("extremal.bound", theorem_bound, ExtremalParams(*args))
    raise ValueError(f"unknown toolkit op {kind!r}")


def _is_clique(h: Hypergraph, c: int) -> bool:
    vertices = [1 << v for v in range(h.n) if c >> v & 1]
    return all(sum(t) in h.edge_set for t in combinations(vertices, h.r))


def check_op(kind: str, args: tuple, out, group_results: dict) -> str | None:
    """None when the answer is right, else what is wrong with it."""
    if kind in ("count", "census", "enum"):
        h, s = args
        group_results[kind] = out
        if kind != "enum":
            return None
        count, census = group_results["count"], group_results["census"]
        if not count.total == census[s] == len(out):
            return f"clique counts disagree: {count.total}, {census[s]}, {len(out)}"
        if sum(count.per_vertex.values()) != s * count.total:
            return "per-vertex counts do not sum to s * total"
        if sorted(set(out)) != out or not all(
            c.bit_count() == s and _is_clique(h, c) for c in out
        ):
            return "enumerated sets are not distinct s-cliques in colex order"
        return None
    if kind == "nu":
        (h,) = args
        nu, m = out
        used = 0
        for e in m.edges:
            if e not in h.edge_set or e & used:
                return "matching witness is not a matching of h"
            used |= e
        if len(m.edges) != nu:
            return f"witness has {len(m.edges)} edges, ν = {nu}"
        if not has_matching_at_most(h, nu) or has_matching_at_most(h, nu - 1):
            return f"has_matching_at_most disagrees with ν = {nu}"
        return None
    if kind == "rainbow":
        fam, planted = args
        if not planted:
            union = Hypergraph.from_edge_masks(
                fam.n, fam.r, sorted({e for h in fam.members for e in h.edges})
            )
            if out is not None or not has_matching_at_most(union, fam.k - 1):
                return "rainbow matching reported where ν(union) < k"
            return None
        if out is None:
            return "planted rainbow matching not found"
        if sorted(c for c, _ in out.picks) != list(range(1, fam.k + 1)):
            return "rainbow pick is not one edge per colour"
        used = 0
        for colour, e in out.picks:
            if e not in fam.members[colour - 1].edge_set or e & used:
                return "rainbow pick is not pairwise disjoint edges of their colours"
            used |= e
        return None
    if kind == "stabilize":
        (h,) = args
        res = out.result
        if (res.n, res.r, len(res.edges)) != (h.n, h.r, len(h.edges)):
            return "stabilize changed n, r or the edge count"
        if not (is_stable(res) and stable_closure_check(res)):
            return "stabilize returned an unstable family"
        return None
    if kind == "roundtrip":
        return None if out == args[0] else ".hg round trip is not the identity"
    if kind == "ineq":
        bad = [v.name for v in out if v.holds is False]
        return f"inequalities fail: {bad}" if bad else None
    if kind == "prop32":
        if out.status != "confirmed" or out.observed_max != 0:
            return f"Proposition 3.2 cell {args}: {out.status}"
        return None
    if kind == "bound":
        params = ExtremalParams(*args)
        bound, regime, _gap = out
        level = {"I": 1, "II": params.a, "III": params.r}[regime]
        family = build_extremal_family(params.n, params.k, params.r, level)
        if regime != params.regime or bound != count_cliques(family, params.s).total:
            return f"theorem_bound{args} disagrees with the extremal family"
        return None
    raise ValueError(f"unknown toolkit op {kind!r}")
