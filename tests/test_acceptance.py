"""Acceptance suite: ten numbered criteria, one printed verdict each.

Every criterion is exact (zero tolerance, zero violations).  Randomized
criteria use fixed seeds so the whole suite is reproducible bit for bit.
"""

import random
from fractions import Fraction

import conftest
from conftest import naive_matching_number
from hyperext.cliques import clique_census, count_cliques
from hyperext.core import ColoredFamily, Hypergraph
from hyperext.extremal import (
    binom,
    binomial_inequality_suite,
    build_extremal_family,
    closed_form_clique_count,
    n_star,
    rainbow_hypothesis_check,
    recurrence_check,
)
from hyperext.matchings import (
    find_rainbow_matching,
    is_valid_rainbow_matching,
    matching_number,
)
from hyperext.randgen import random_family_above_edge_threshold, random_hypergraph
from hyperext.shifting import is_stable, shift, stable_closure_check
from hyperext.verifier import (
    CONFIRMED,
    run_extremal_sweep,
    verify_proposition_3_2,
)


def _report(num: int, title: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    conftest.ACCEPTANCE_LINES.append(
        f"criterion {num:2d} [{verdict}] {title}: {detail}"
    )
    assert ok, f"criterion {num} ({title}): {detail}"


def _criterion1_cells():
    for r in range(1, 5):
        for k in range(1, 4):
            for a in range(1, r + 1):
                lo = max(r, a * k + a - 1, 1)
                for n in range(lo, 15):
                    yield n, k, r, a


def test_criterion_01_closed_form_oracle_equivalence():
    checked = 0
    mismatches = 0
    for n, k, r, a in _criterion1_cells():
        h = build_extremal_family(n, k, r, a)
        census = clique_census(h, n)
        for s in range(r, n + 1):
            checked += 1
            if census[s] != closed_form_clique_count(n, k, r, a, s):
                mismatches += 1
    _report(
        1,
        "closed form equals direct count",
        mismatches == 0 and checked > 0,
        f"{checked} (n,k,r,a,s) cells, {mismatches} mismatches",
    )


def test_criterion_02_shifting_monotonicity():
    rng = random.Random(202)
    graphs = 5000
    violations = 0
    for _ in range(graphs):
        n = rng.randint(4, 9)
        r = rng.choice([2, 3])
        h = random_hypergraph(rng, n, r)
        nu_h = matching_number(h)[0]
        census_h = clique_census(h, min(n, r + 2))
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                sh = shift(h, i, j)
                if sh == h:
                    continue
                if sh.edge_count != h.edge_count:
                    violations += 1
                    continue
                census_s = clique_census(sh, min(n, r + 2))
                for s in (r, r + 1, r + 2):
                    if census_s.get(s, 0) < census_h.get(s, 0):
                        violations += 1
                if matching_number(sh)[0] > nu_h:
                    violations += 1
    _report(
        2,
        "shifting preserves size, grows cliques, shrinks nu",
        violations == 0,
        f"{graphs} seeded graphs, all pairs i<j, {violations} violations",
    )


def test_criterion_03_stability_characterization():
    rng = random.Random(303)
    disagreements = 0
    for _ in range(10_000):
        n = rng.randint(2, 8)
        r = rng.randint(1, min(3, n))
        h = random_hypergraph(rng, n, r)
        if is_stable(h) != stable_closure_check(h):
            disagreements += 1
    unstable_families = 0
    for n, k, r, a in _criterion1_cells():
        h = build_extremal_family(n, k, r, a)
        if not (is_stable(h) and stable_closure_check(h)):
            unstable_families += 1
    _report(
        3,
        "operator stability equals downset closure",
        disagreements == 0 and unstable_families == 0,
        f"10000 random graphs ({disagreements} disagreements), "
        f"extremal constructions ({unstable_families} unstable)",
    )


def test_criterion_04_matching_number_oracle():
    rng = random.Random(404)
    compared = 0
    disagreements = 0
    for _ in range(4000):
        n = rng.randint(4, 10)
        r = rng.choice([2, 3])
        h = random_hypergraph(rng, n, r, rng.random() * 0.35)
        if h.edge_count > 12:
            continue
        compared += 1
        if matching_number(h)[0] != naive_matching_number(h):
            disagreements += 1
    _report(
        4,
        "branch-and-bound nu equals naive subset search",
        disagreements == 0 and compared >= 500,
        f"{compared} graphs with <= 12 edges, {disagreements} disagreements",
    )


def test_criterion_05_regime_iii_confirmation():
    cells = []
    for r, k in [(2, 1), (2, 2), (3, 1)]:
        for s in range((r - 1) * (k + 1) + 1, r * k + r):
            for n in range(r * k + r - 1, r * k + r + 3):
                cells.append((n, k, r, s))
    reports = list(run_extremal_sweep(cells, jobs=4))
    bad = 0
    for rep in reports:
        k, r, s = rep.cell["k"], rep.cell["r"], rep.cell["s"]
        if rep.regime != "III":
            bad += 1
        elif rep.status != CONFIRMED:
            bad += 1  # includes any second-maximum gap violation
        elif rep.observed_max != binom(r * k + r - 1, s):
            bad += 1
    _report(
        5,
        "top-regime bound and second-maximum gap",
        bad == 0 and len(reports) == len(set(cells)),
        f"{len(reports)} exhaustive cells, {bad} failures",
    )


def test_criterion_06_graph_case_cross_check():
    cells = [(6, 1), (7, 1), (8, 2), (9, 2)]
    bad = 0
    reports = run_extremal_sweep([(n, k, 2, 2) for n, k in cells])
    for rep, (n, k) in zip(reports, cells):
        expected = max(binom(2 * k + 1, 2), binom(n, 2) - binom(n - k, 2))
        if rep.observed_max != expected or rep.status != CONFIRMED:
            bad += 1
    _report(
        6,
        "graph edge-count maximum matches both constructions",
        bad == 0,
        f"cells {cells}, {bad} failures",
    )


def test_criterion_07_head_intersection_property():
    bad = 0
    cells = 0
    for n, k, r in [(7, 1, 3), (6, 1, 2)]:
        for s in range(k + r, r * k + r):
            cells += 1
            rep = verify_proposition_3_2(n, k, r, s)
            if rep.status != CONFIRMED or rep.observed_max != 0:
                bad += 1
    _report(
        7,
        "edges covered by s-cliques meet the head segment",
        bad == 0 and cells > 0,
        f"{cells} (n,k,r,s) cells, {bad} violations",
    )


def test_criterion_08_recurrence_and_inequality_sweeps():
    recurrence_bad = 0
    recurrence_cells = 0
    for r in range(2, 5):
        for k in range(2, 6):
            for s in range(r, 9):
                for n in range(r * k + r, 21):
                    recurrence_cells += 1
                    if not recurrence_check(n, k, r, s):
                        recurrence_bad += 1

    ineq_bad = 0
    ineq_checks = 0
    for a in range(0, 31):
        for b in range(0, a + 1):
            for c in range(0, b + 1):
                for v in binomial_inequality_suite(a, b, c):
                    ineq_checks += 1
                    if v.name == "eq3" and b <= c:
                        # guarded case: only an outright failure counts
                        if v.holds is False:
                            ineq_bad += 1
                    elif v.holds is not True:
                        ineq_bad += 1
    for p in range(1, 11):
        for i in range(1, 101):
            x = Fraction(i, 100 * p)
            suite = binomial_inequality_suite(2, 1, 0, p, x)
            eq5 = next(v for v in suite if v.name == "eq5")
            ineq_checks += 1
            if eq5.holds is not True:
                ineq_bad += 1
    _report(
        8,
        "recurrence exact, binomial estimates rigorous",
        recurrence_bad == 0 and ineq_bad == 0,
        f"{recurrence_cells} recurrence cells ({recurrence_bad} bad), "
        f"{ineq_checks} inequality checks ({ineq_bad} bad)",
    )


def test_criterion_09_rainbow_matchings():
    rng = random.Random(909)
    missing = 0
    for _ in range(1000):
        r = rng.choice([2, 3])
        k = rng.randint(1, 3)
        n = rng.randint(max(r, r * k), 10)
        fam = random_family_above_edge_threshold(rng, n, r, k)
        rm = find_rainbow_matching(fam)
        if rm is None or not is_valid_rainbow_matching(fam, rm):
            missing += 1

    boundary_bad = 0
    for n, r, k in [(8, 2, 2), (9, 2, 3), (9, 3, 2), (10, 3, 3)]:
        member = build_extremal_family(n, k - 1, r, 1)
        fam = ColoredFamily(n, r, (member,) * k)
        if find_rainbow_matching(fam) is not None:
            boundary_bad += 1

    checker_bad = 0
    for _ in range(60):
        n, r, k = 8, 2, 3
        t = rng.randint(r, k + r - 2)
        members = tuple(random_hypergraph(rng, n, r) for _ in range(k))
        fam = ColoredFamily(n, r, members)
        verdicts = rainbow_hypothesis_check(fam, t)
        for member, verdict in zip(members, verdicts):
            direct = any(
                count_cliques(member, s).total
                > closed_form_clique_count(n, k - 1, r, 1, s)
                for s in range(r, t + 1)
            )
            if verdict != direct:
                checker_bad += 1
    _report(
        9,
        "rainbow guarantee, boundary strictness, hypothesis checker",
        missing == 0 and boundary_bad == 0 and checker_bad == 0,
        f"1000 families above threshold ({missing} without rainbow), "
        f"boundary ({boundary_bad} bad), checker ({checker_bad} bad)",
    )


def test_criterion_10_crossover_sanity():
    checked = 0
    bad = 0
    for r in range(2, 5):
        for k in range(1, 4):
            for s in range(r, (r - 1) * (k + 1) + 1):
                a = (s - r) // k + 1
                if a >= r:
                    continue
                hi = int(n_star(k, r, s))
                for n in range(max(r, a * k + a - 1), hi + 1):
                    checked += 1
                    full = closed_form_clique_count(n, k, r, r, s)
                    level = closed_form_clique_count(n, k, r, a, s)
                    if not full > level:
                        bad += 1
    _report(
        10,
        "complete-head family wins below the crossover",
        bad == 0 and checked > 0,
        f"{checked} (n,k,r,s) points below n*, {bad} violations",
    )
