import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from mpmath import mp

from conftest import (
    binomial_estimates_by_fractions,
    naive_clique_count,
    rainbow_hypothesis_by_counts,
)
from hyperext.cliques import count_cliques
from hyperext.core import labels_from_mask
from hyperext.extremal import (
    ExtremalParams,
    _exceeds_e_power,
    binom,
    binomial_inequality_suite,
    build_extremal_family,
    closed_form_clique_count,
    n_star,
    rainbow_hypothesis_check,
    recurrence_check,
    theorem_bound,
)
from hyperext.core import ColoredFamily, Hypergraph
from hyperext.matchings import matching_number


class TestBinom:
    def test_matches_math_comb_inside_range(self):
        for n in range(0, 12):
            for k in range(0, n + 1):
                assert binom(n, k) == math.comb(n, k)

    def test_zero_outside_range(self):
        assert binom(3, 5) == 0
        assert binom(3, -1) == 0
        assert binom(-2, 0) == 0


class TestParams:
    def test_level_formula(self):
        assert ExtremalParams(10, 2, 3, 3).a == 1
        assert ExtremalParams(10, 2, 3, 5).a == 2
        assert ExtremalParams(10, 2, 3, 7).a == 3

    def test_regime_boundaries(self):
        # k=2, r=3: I up to s=4, II up to s=6, III up to s=8
        assert ExtremalParams(20, 2, 3, 4).regime == "I"
        assert ExtremalParams(20, 2, 3, 5).regime == "II"
        assert ExtremalParams(20, 2, 3, 6).regime == "II"
        assert ExtremalParams(20, 2, 3, 7).regime == "III"
        assert ExtremalParams(20, 2, 3, 8).regime == "III"
        with pytest.raises(ValueError):
            ExtremalParams(20, 2, 3, 9).regime

    def test_r2_has_no_middle_regime(self):
        for k in (1, 2, 3):
            for s in range(2, 2 * k + 2):
                assert ExtremalParams(30, k, 2, s).regime in ("I", "III")

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ExtremalParams(5, 1, 3, 2)
        with pytest.raises(ValueError):
            ExtremalParams(0, 1, 2, 2)


class TestBuildFamily:
    def test_edge_membership_definition(self):
        for n, k, r, a in [(8, 2, 3, 1), (9, 2, 3, 2), (10, 1, 4, 3)]:
            h = build_extremal_family(n, k, r, a)
            head = a * k + a - 1
            expect = {
                frozenset(c)
                for c in combinations(range(1, n + 1), r)
                if sum(1 for v in c if v <= head) >= a
            }
            got = {frozenset(labels_from_mask(e)) for e in h.edges}
            assert got == expect

    def test_matching_number_at_most_k(self):
        for n, k, r, a in [(10, 2, 3, 1), (9, 2, 3, 2), (7, 3, 2, 1), (7, 1, 3, 3)]:
            h = build_extremal_family(n, k, r, a)
            assert matching_number(h)[0] <= k

    def test_a_equals_r_is_complete_on_head(self):
        h = build_extremal_family(12, 2, 3, 3)
        assert h.edge_count == binom(8, 3)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_extremal_family(5, 2, 3, 4)
        with pytest.raises(ValueError):
            build_extremal_family(4, 2, 3, 2)  # n below head size 5


class TestClosedForm:
    def test_worked_example(self):
        assert closed_form_clique_count(10, 2, 3, 1, 3) == 64

    def test_agrees_with_direct_count(self):
        for n in range(3, 11):
            for r in (2, 3):
                for k in (1, 2):
                    for a in range(1, r + 1):
                        if n < a * k + a - 1 or n < r:
                            continue
                        h = build_extremal_family(n, k, r, a)
                        for s in range(r, min(n, r + 3) + 1):
                            assert (
                                closed_form_clique_count(n, k, r, a, s)
                                == count_cliques(h, s).total
                            )

    def test_oracle_spot_check(self):
        h = build_extremal_family(9, 2, 3, 2)
        for s in (3, 4, 5):
            assert closed_form_clique_count(9, 2, 3, 2, s) == naive_clique_count(h, s)

    def test_small_s_counts_all_subsets(self):
        # s < r: every s-set is vacuously a clique
        assert closed_form_clique_count(10, 2, 3, 1, 2) == binom(10, 2)
        assert closed_form_clique_count(10, 2, 3, 1, 0) == 1

    def test_full_head_value_ignores_small_n(self):
        # a = r: the count is C(rk+r-1, s) regardless of n below the head
        assert closed_form_clique_count(5, 2, 3, 3, 4) == binom(8, 4)
        assert closed_form_clique_count(20, 2, 3, 3, 4) == binom(8, 4)


class TestRecurrence:
    def test_holds_on_grid(self):
        for r in (2, 3, 4):
            for k in (2, 3, 4, 5):
                for s in range(r, 9):
                    for n in range(r * k + r, 21):
                        assert recurrence_check(n, k, r, s)

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            recurrence_check(10, 1, 2, 3)


class TestInequalities:
    def test_all_hold_on_grid(self):
        for a in range(0, 16):
            for b in range(0, a + 1):
                for c in range(0, b + 1):
                    for v in binomial_inequality_suite(a, b, c):
                        assert v.holds is not False, (a, b, c, v)

    def test_e_power_decided_at_the_floor(self):
        # q = floor(e^p 10^d) lies just below e^p 10^d and q + 1 just above;
        # (1) and (4) hold on every (a, b, c) the suites use: only this asks for a no
        with mp.workdps(120):
            for p in range(1, 41):
                for d in (0, 1, 3, 10, 30, 60):
                    den = 10**d
                    q = int(mp.floor(mp.e**p * den))
                    assert not _exceeds_e_power(q, den, p), (p, d)
                    assert _exceeds_e_power(q + 1, den, p), (p, d)

    def test_eq3_precondition(self):
        suite = binomial_inequality_suite(6, 3, 3)
        eq3 = next(v for v in suite if v.name == "eq3")
        assert eq3.holds is None and "b > c" in eq3.note

    def test_unordered_arguments_flagged(self):
        for v in binomial_inequality_suite(2, 5, 1):
            assert v.holds is None

    def test_eq5_exact(self):
        for p in range(1, 8):
            for i in range(1, 21):
                x = Fraction(i, 20 * p)
                suite = binomial_inequality_suite(3, 2, 1, p, x)
                eq5 = next(v for v in suite if v.name == "eq5")
                assert eq5.holds is True

    def test_eq5_out_of_domain(self):
        suite = binomial_inequality_suite(3, 2, 1, 2, Fraction(2, 3))
        eq5 = next(v for v in suite if v.name == "eq5")
        assert eq5.holds is None

    @staticmethod
    def assert_eq2_eq3_match_fractions(a, b, c):
        verdicts = {v.name: v.holds for v in binomial_inequality_suite(a, b, c)}
        eq2, eq3 = binomial_estimates_by_fractions(a, b, c)
        assert (verdicts["eq2"], verdicts["eq3"]) == (eq2, eq3), (a, b, c)

    def test_eq2_eq3_match_fractions_on_grid(self):
        for a in range(1, 31):
            for b in range(1, a + 1):
                for c in range(1, b + 1):
                    self.assert_eq2_eq3_match_fractions(a, b, c)

    def test_eq2_eq3_match_fractions_on_toolkit_sizes(self):
        # drawn as the benchmark's toolkit draws its ineq calls
        rng = random.Random(23)
        for _ in range(500):
            a = rng.randint(1000, 5000)
            b = rng.randint(a // 4, a // 2)
            self.assert_eq2_eq3_match_fractions(a, b, rng.randint(1, b - 1))

    def test_tightness_near_equality(self):
        # eq2 with b = a is equality; must still report holds
        suite = binomial_inequality_suite(7, 7, 3)
        eq2 = next(v for v in suite if v.name == "eq2")
        assert eq2.holds is True


class TestNStar:
    def test_worked_example(self):
        assert n_star(1, 3, 4) == pytest.approx(27 / 32)

    def test_matches_formula(self):
        for k in (1, 2, 3):
            for r in (3, 4):
                for s in range(r, (r - 1) * (k + 1) + 1):
                    a = (s - r) // k + 1
                    if a >= r:
                        continue
                    expect = (r / a) ** ((s - r + a) / (r - a)) * (
                        (r * k + r - 1 - s) / s
                    )
                    assert n_star(k, r, s) == pytest.approx(expect)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            n_star(1, 2, 5)  # above (r-1)(k+1)
        with pytest.raises(ValueError):
            n_star(2, 3, 2)  # below r

    def test_crossover_exists_and_is_one_sided(self):
        # the exact comparison flips exactly once: below some n the
        # complete-head count wins, from there on the level-a count does
        for k in (1, 2, 3):
            for r in (3, 4):
                for s in range(r + 1, (r - 1) * (k + 1) + 1):
                    a = (s - r) // k + 1
                    if a >= r:
                        continue
                    assert n_star(k, r, s) > 0
                    lo = max(r, a * k + a - 1, s)
                    wins = [
                        closed_form_clique_count(n, k, r, a, s)
                        >= closed_form_clique_count(n, k, r, r, s)
                        for n in range(lo, 2000)
                    ]
                    assert wins[-1], (k, r, s)
                    first = wins.index(True)
                    assert all(wins[first:]), (k, r, s)


class TestTheoremBound:
    def test_regime_i_uses_level_one(self):
        p = ExtremalParams(12, 2, 3, 4)
        bound, regime, gap = theorem_bound(p)
        assert regime == "I" and gap is None
        assert bound == closed_form_clique_count(12, 2, 3, 1, 4)

    def test_regime_ii_uses_level_a(self):
        p = ExtremalParams(12, 2, 3, 5)
        bound, regime, gap = theorem_bound(p)
        assert regime == "II" and gap is None
        assert bound == closed_form_clique_count(12, 2, 3, 2, 5)

    def test_regime_iii_bound_and_gap(self):
        p = ExtremalParams(12, 2, 3, 8)
        bound, regime, gap = theorem_bound(p)
        assert regime == "III"
        assert bound == binom(8, 8) == 1
        assert gap == binom(8, 8) - binom(5, 5)


class TestRainbowHypothesis:
    def test_complete_members_pass(self):
        n, r, k = 8, 2, 3
        fam = ColoredFamily(n, r, (Hypergraph.complete(n, r),) * k)
        assert rainbow_hypothesis_check(fam, r) == [True] * k

    def test_reference_family_fails_strictness(self):
        n, r, k = 9, 2, 3
        member = build_extremal_family(n, k - 1, r, 1)
        fam = ColoredFamily(n, r, (member,) * k)
        assert rainbow_hypothesis_check(fam, r) == [False] * k

    def test_t_domain(self):
        fam = ColoredFamily(6, 2, (Hypergraph.complete(6, 2),) * 3)
        with pytest.raises(ValueError):
            rainbow_hypothesis_check(fam, 5)

    def test_agrees_with_direct_comparison(self):
        # one census per colour against one count_cliques per s
        rng = random.Random(30)
        from hyperext.randgen import random_hypergraph

        for _ in range(40):
            r = rng.randint(1, 3)
            k = rng.randint(2, 4)
            n = rng.randint(r + 1, 9)
            fam = ColoredFamily(
                n, r, tuple(random_hypergraph(rng, n, r) for _ in range(k))
            )
            for t in range(r, k + r - 1):
                want = rainbow_hypothesis_by_counts(fam, t)
                assert rainbow_hypothesis_check(fam, t) == want


def test_library_needs_no_runtime_dependency():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = "import sys, hyperext; print('mpmath' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"
    tomllib = pytest.importorskip("tomllib")
    with open(root / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []
