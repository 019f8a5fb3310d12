"""Extremal families, closed-form clique counts, and the inequality toolbox.

The extremal family on [n] at level a consists of all r-sets with at
least a vertices in the head segment [ak+a-1]; its matching number is at
most k.  The regime policy (regime, level, n-threshold) lives here.  All
counts are exact big integers, and every comparison with a power of e is
decided exactly by ``_exceeds_e_power``.  The threshold
n_star below which the complete-head family (a = r) out-counts the
level-a family is the only real-valued quantity here.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .cliques import clique_census
from .core import ColoredFamily, Hypergraph, _Record, r_subsets

if TYPE_CHECKING:
    from fractions import Fraction


def binom(n: int, k: int) -> int:
    """C(n, k) with the convention 0 outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


class ExtremalParams(_Record):
    """Parameter cell (n, k, r, s) with derived level and regime tag.

    Instances are immutable; two are equal when their fields are.
    """

    _fields = ("n", "k", "r", "s")
    n: int
    k: int
    r: int
    s: int

    def __init__(self, n: int, k: int, r: int, s: int):
        if min(n, k, r, s) < 1:
            raise ValueError("n, k, r, s must be positive")
        if s < r:
            raise ValueError(f"need s >= r, got s={s}, r={r}")
        self._set_fields(n, k, r, s)

    @property
    def a(self) -> int:
        return (self.s - self.r) // self.k + 1

    @property
    def regime(self) -> str:
        k, r, s = self.k, self.r, self.s
        if s <= k + r - 1:
            return "I"
        if s <= (r - 1) * (k + 1):
            return "II"
        if s <= r * k + r - 1:
            return "III"
        raise ValueError(
            f"s={s} above the top regime (needs s <= rk+r-1 = {r * k + r - 1})"
        )

    @property
    def level(self) -> int:
        """The level of the regime's extremal family: 1, a, r for I, II, III."""
        return {"I": 1, "II": self.a, "III": self.r}[self.regime]


def build_extremal_family(n: int, k: int, r: int, a: int) -> Hypergraph:
    """The r-graph of all r-sets meeting the head [ak+a-1] in >= a vertices."""
    if not (n >= r >= a >= 1 and k >= 1):
        raise ValueError(
            f"need n >= r >= a >= 1 and k >= 1, got n={n}, k={k}, r={r}, a={a}"
        )
    head = a * k + a - 1
    if n < head:
        raise ValueError(f"need n >= ak+a-1 = {head}, got n={n}")
    head_mask = (1 << head) - 1
    masks = [m for m in r_subsets(n, r) if (m & head_mask).bit_count() >= a]
    masks.sort()
    return Hypergraph(n, r, tuple(masks))


def closed_form_clique_count(n: int, k: int, r: int, a: int, s: int) -> int:
    """Sum over head occupancies i of C(ak+a-1, i) C(n-ak-a+1, s-i).

    Each s-clique of the level-a family has at least s-r+a head vertices,
    giving the lower summation limit; terms out of range vanish by the
    C(x, y) = 0 convention.  The count of non-head vertices is clamped at
    zero so the a = r value stays C(rk+r-1, s) even when n is below the
    head size (that is the value the small-n comparison chain uses).
    Accepts s < r, where every s-set is vacuously a clique.
    """
    if not (r >= a >= 1 and k >= 1 and n >= 1 and s >= 0):
        raise ValueError(
            f"need r >= a >= 1, k >= 1, n >= 1, s >= 0; "
            f"got n={n}, k={k}, r={r}, a={a}, s={s}"
        )
    head = a * k + a - 1
    outside = max(n - head, 0)
    total = 0
    for i in range(max(s - r + a, 0), s + 1):
        total += binom(head, i) * binom(outside, s - i)
    return total


def recurrence_check(n: int, k: int, r: int, s: int) -> bool:
    """Exact check of K_s(F_{n,k,1}) = K_s(F_{n-1,k-1,1}) + K_{s-1}(F_{n-1,k-1,1})."""
    if k < 2 or s < r:
        raise ValueError(f"need k >= 2 and s >= r, got k={k}, s={s}, r={r}")
    lhs = closed_form_clique_count(n - 1, k - 1, r, 1, s) + closed_form_clique_count(
        n - 1, k - 1, r, 1, s - 1
    )
    return lhs == closed_form_clique_count(n, k, r, 1, s)


class InequalityVerdict(NamedTuple):
    name: str
    holds: bool | None
    note: str = ""


def _exceeds_e_power(num: int, den: int, p: int) -> bool:
    """Exactly: is num/den > e^p, for integers num >= 0, den > 0, p >= 1?

    The partial sums lo = Σ_{i<=j} 1/i! = low/j! and hi = lo + 1/(j!·j)
    bracket e strictly, and they tighten until num/den leaves
    [lo^p, hi^p]; that always happens because e^p is irrational, so it
    never equals num/den.  Everything stays in integers: low grows by
    low·j + 1 and fact by fact·j.
    """
    low = fact = 1
    j = 0
    while True:
        j += 1
        low = low * j + 1
        fact *= j
        if (low * j + 1) ** p * den <= num * (fact * j) ** p:
            return True
        if low**p * den >= num * fact**p:
            return False


def reaches_regime_threshold(params: ExtremalParams) -> bool:
    """Whether n >= the n-threshold of the regime, decided exactly.

    I: 4(er)^p k with p = s-r+2;  II: 4r²k (er/(a-1))^p with p = s-r+a;
    III: rk+r-1.
    """
    n, k, r, s = params.n, params.k, params.r, params.s
    regime = params.regime
    if regime == "III":
        return n >= r * k + r - 1
    if regime == "I":
        p = s - r + 2
        return _exceeds_e_power(n, 4 * r**p * k, p)
    a = params.a
    p = s - r + a
    return _exceeds_e_power(n * (a - 1) ** p, 4 * r * r * k * r**p, p)


def binomial_inequality_suite(
    a: int,
    b: int,
    c: int,
    p: int | None = None,
    x: Fraction | None = None,
) -> list[InequalityVerdict]:
    """Verdicts for the five binomial estimates.

    (1) C(a,b) <= (ea/b)^b          (2) C(b,c) <= (b/a)^c C(a,c)
    (3) C(a,c) <= ((a-c)/(b-c))^c C(b,c), needs b > c
    (4) C(a,c) <= (ea/b)^c C(b,c)   (5) (1+x)^p <= 1 + p^2 x, 0 < x <= 1/p

    Every verdict is exact: (2) and (3) by integer cross-multiplication,
    C(b,c)·a^c <= b^c·C(a,c) and C(a,c)·(b-c)^c <= (a-c)^c·C(b,c);
    (5) in rational arithmetic; (1) and (4), which involve powers of e,
    by ``_exceeds_e_power``.
    """
    out: list[InequalityVerdict] = []
    pre_ok = a >= b >= c >= 0

    if not pre_ok:
        note = f"needs a >= b >= c >= 0, got a={a}, b={b}, c={c}"
        out.extend(InequalityVerdict(f"eq{i}", None, note) for i in range(1, 5))
    else:
        # (1)
        if b == 0:
            out.append(InequalityVerdict("eq1", True, "b = 0: 1 <= 1"))
        else:
            holds = not _exceeds_e_power(binom(a, b) * b**b, a**b, b)
            out.append(InequalityVerdict("eq1", holds))
        if c == 0:
            out.extend(
                InequalityVerdict(f"eq{i}", True, "c = 0: 1 <= 1") for i in (2, 3, 4)
            )
        else:
            ac, bc = binom(a, c), binom(b, c)
            # (2), times a^c > 0
            holds = bc * a**c <= b**c * ac
            out.append(InequalityVerdict("eq2", holds))
            # (3), times (b-c)^c > 0
            if b <= c:
                out.append(InequalityVerdict("eq3", None, "needs b > c"))
            else:
                holds = ac * (b - c) ** c <= (a - c) ** c * bc
                out.append(InequalityVerdict("eq3", holds))
            # (4)
            holds = not _exceeds_e_power(ac * b**c, a**c * bc, c)
            out.append(InequalityVerdict("eq4", holds))

    if p is not None or x is not None:
        from fractions import Fraction

        if p is None or x is None:
            out.append(InequalityVerdict("eq5", None, "needs both p and x"))
        elif p < 1 or not 0 < x <= Fraction(1, p):
            out.append(
                InequalityVerdict(
                    "eq5", None, f"needs p >= 1 and 0 < x <= 1/p, got p={p}, x={x}"
                )
            )
        else:
            xf = Fraction(x)
            holds = (1 + xf) ** p <= 1 + p * p * xf
            out.append(InequalityVerdict("eq5", holds))
    return out


def n_star(k: int, r: int, s: int) -> float:
    """Crossover threshold below which the complete-head family wins.

    n_star = (r/a)^((s-r+a)/(r-a)) * (rk+r-1-s)/s with a = floor((s-r)/k)+1.
    Informational only: pass/fail comparisons always fall back to the two
    exact closed forms.
    """
    if not r <= s <= (r - 1) * (k + 1):
        raise ValueError(
            f"need r <= s <= (r-1)(k+1), got r={r}, s={s}, k={k}"
        )
    a = (s - r) // k + 1
    if a >= r:
        raise ValueError(f"a={a} must be below r={r} (exponent undefined)")
    return (r / a) ** ((s - r + a) / (r - a)) * ((r * k + r - 1 - s) / s)


def theorem_bound(params: ExtremalParams) -> tuple[int, str, int | None]:
    """Conjectured/proved maximum of K_s^r over ν <= k, per regime.

    Returns (bound, regime, gap_bound); gap_bound is only set in regime
    III, where any hypergraph strictly below the bound satisfies
    K_s^r <= C(rk+r-1, s) - C(rk-1, s-r).  The regime's n-threshold is
    not enforced here; the verifier charts where the bound starts holding.
    """
    n, k, r, s = params.n, params.k, params.r, params.s
    regime = params.regime
    bound = closed_form_clique_count(n, k, r, params.level, s)
    if regime != "III":
        return bound, regime, None
    gap = binom(r * k + r - 1, s) - binom(r * k - 1, s - r)
    return bound, regime, gap


def rainbow_hypothesis_check(fam: ColoredFamily, t: int) -> list[bool]:
    """Per color: does some s in [r, t] have K_s^r(F_i) > K_s^r(F_{n,k-1,1})?

    k is the number of colors.  The reference count uses the closed form;
    strict inequality is required.  Each color's counts for s = r..t
    come from one ``clique_census`` walk.
    """
    n, r, k = fam.n, fam.r, fam.k
    if not r <= t <= k + r - 2:
        raise ValueError(f"need r <= t <= k+r-2, got t={t}, r={r}, k={k}")
    reference = {
        s: closed_form_clique_count(n, k - 1, r, 1, s) if k >= 2 else 0
        for s in range(r, t + 1)
    }
    verdicts = []
    for member in fam.members:
        counts = clique_census(member, t)
        verdicts.append(any(counts[s] > reference[s] for s in reference))
    return verdicts
