import random

import pytest

from hyperext.core import r_subsets
from hyperext.extremal import binom, rainbow_hypothesis_check
from hyperext.randgen import random_family_above_edge_threshold


class TestFamilyAboveEdgeThreshold:
    def test_seed_reproducibility(self):
        a = random_family_above_edge_threshold(random.Random(1), 8, 3, 2)
        b = random_family_above_edge_threshold(random.Random(1), 8, 3, 2)
        assert a == b

    def test_every_colour_is_above_the_threshold(self):
        rng = random.Random(17)
        for _ in range(60):
            r = rng.choice([1, 2, 3])
            k = rng.randint(1, 3)
            n = rng.randint(max(r + 1, r * k), 9)
            fam = random_family_above_edge_threshold(rng, n, r, k)
            assert (fam.n, fam.r, fam.k) == (n, r, k)
            universe = set(r_subsets(n, r))
            for member in fam.members:
                assert len(member.edges) > (k - 1) * binom(n - 1, r - 1)
                assert list(member.edges) == sorted(set(member.edges))
                assert set(member.edges) <= universe

    def test_every_colour_meets_the_rainbow_hypothesis(self):
        # more edges than F_{n,k-1,1} is the s = r case of the hypothesis,
        # so every t in [r, k+r-2] passes
        rng = random.Random(5)
        for n, r, k in [(8, 2, 2), (8, 3, 2), (8, 2, 3), (9, 3, 3)]:
            for _ in range(5):
                fam = random_family_above_edge_threshold(rng, n, r, k)
                for t in range(r, k + r - 1):
                    assert rainbow_hypothesis_check(fam, t) == [True] * k

    def test_unsatisfiable_threshold_rejected(self):
        # (k-1) C(n-1, r-1) = 2 * 3 = 6 = C(4, 2): no member can exceed it
        with pytest.raises(ValueError, match="not satisfiable"):
            random_family_above_edge_threshold(random.Random(0), 4, 2, 3)
