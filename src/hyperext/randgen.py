"""Seeded random generators for property sweeps.

Every stream is fully determined by its ``random.Random`` instance, so a
single integer seed reproduces a whole run byte for byte.
"""

from __future__ import annotations

import random

from .core import ColoredFamily, Hypergraph, r_subsets
from .extremal import binom


def random_hypergraph(
    rng: random.Random, n: int, r: int, density: float | None = None
) -> Hypergraph:
    """Each r-set kept independently; density drawn uniformly if omitted."""
    if density is None:
        density = rng.random()
    masks = [m for m in r_subsets(n, r) if rng.random() < density]
    masks.sort()
    return Hypergraph(n, r, tuple(masks))


def random_family_above_edge_threshold(
    rng: random.Random, n: int, r: int, k: int
) -> ColoredFamily:
    """k colors, each with more than (k-1) C(n-1, r-1) random edges.

    This is the edge-count hypothesis under which a rainbow matching is
    guaranteed for n >= rk.
    """
    threshold = (k - 1) * binom(n - 1, r - 1)
    universe = list(r_subsets(n, r))
    if threshold >= len(universe):
        raise ValueError(
            f"edge threshold {threshold} not satisfiable with C({n},{r}) edges"
        )
    members = []
    for _ in range(k):
        size = rng.randint(threshold + 1, len(universe))
        masks = rng.sample(universe, size)
        masks.sort()
        members.append(Hypergraph(n, r, tuple(masks)))
    return ColoredFamily(n, r, tuple(members))
