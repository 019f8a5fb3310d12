"""r-uniform hypergraphs as immutable bitset edge families.

Vertex sets are plain Python ints used as bit vectors: bit ``v`` set means
vertex with external label ``v + 1`` is present.  All public I/O is
1-indexed; everything internal works on 0-indexed bits.  Edges are kept
deduplicated and sorted by numeric mask value, which is exactly colex
order on the underlying vertex sets.  ``Budget`` is the one node budget
that every exhaustive search spends from.

The .hg text format (``parse``, ``serialize``) is a header line ``n r``
and one line of labels per edge; a label token is anything ``int()``
reads (``+1``, ``01`` and non-ASCII digits included) that lies in
[1, n].  Both directions look each label up in a table made per call
from the labels actually used, never from [n].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator


class HypergraphFormatError(ValueError):
    """Raised when a .hg file (or equivalent text) is malformed."""


class BudgetExceededError(RuntimeError):
    """A search took more nodes than its ``Budget`` allows."""


class Budget:
    """A node budget shared by a search and every search inside it.

    Each search spends one node per step from the budget it is handed:
    the stable-family walk per family it reaches (its ν test runs no
    search), the ν search per search node, as when the verifier
    re-checks a witness or ``hyperext nu`` runs, and the regime-III
    descent per family it values.  ``limit`` (None for none, else at
    least 1) is the number of nodes all of them may take together; the
    next one raises ``BudgetExceededError``.
    """

    __slots__ = ("limit", "left")

    def __init__(self, limit: int | None = None):
        if limit is not None and limit < 1:
            raise ValueError(f"budget must be at least 1, got {limit}")
        self.limit = limit
        self.left = limit

    def spend(self) -> None:
        if self.left is None:
            return
        self.left -= 1
        if self.left < 0:
            raise BudgetExceededError(
                f"search budget exceeded after {self.limit} nodes"
            )


def mask_from_labels(labels: Iterable[int]) -> int:
    """Bitmask for a set of 1-indexed vertex labels."""
    mask = 0
    for lab in labels:
        if lab < 1:
            raise ValueError(f"vertex label must be >= 1, got {lab}")
        mask |= 1 << (lab - 1)
    return mask


def labels_from_mask(mask: int) -> tuple[int, ...]:
    """Ascending 1-indexed labels of the set bits of ``mask``.

    A negative int has infinitely many set bits, so it is rejected.
    """
    if mask < 0:
        raise ValueError(f"mask must be non-negative, got {mask}")
    labels = []
    while mask:
        low = mask & -mask
        labels.append(low.bit_length())
        mask ^= low
    return tuple(labels)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the 0-indexed positions of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def r_subsets(n: int, r: int) -> Iterator[int]:
    """Yield the masks of the r-subsets of [n] in ``itertools.combinations`` order.

    That order is not colex; callers that need colex sort.  Seeded
    generators draw from this order, so it must not change.
    """
    for c in combinations(range(n), r):
        m = 0
        for v in c:
            m |= 1 << v
        yield m


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph on vertices 1..n with a canonical edge list.

    ``edges`` holds bitmasks in ascending numeric order (= colex order of
    the vertex sets).  Instances are immutable and safe to share.
    """

    n: int
    r: int
    edges: tuple[int, ...]

    @classmethod
    def from_edge_masks(
        cls,
        n: int,
        r: int,
        masks: Iterable[int],
        *,
        strict_duplicates: bool = False,
    ) -> "Hypergraph":
        if not 1 <= r <= n:
            raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
        checked: list[int] = []
        for m in masks:
            # m >> n is nonzero iff m has a bit at n or above (a negative m
            # has them all); unlike m & ~full, it builds no n-bit int
            if m >> n or m.bit_count() != r:
                # repeats met before the bad edge are reported first
                _canonical_edges(checked, strict_duplicates)
                if m < 0:
                    raise ValueError(f"edge mask {m} is negative")
                if m >> n:
                    raise ValueError(
                        f"edge {labels_from_mask(m)} uses vertices above n={n}"
                    )
                raise ValueError(
                    f"edge {labels_from_mask(m)} has cardinality "
                    f"{m.bit_count()}, expected {r}"
                )
            checked.append(m)
        return cls(n, r, _canonical_edges(checked, strict_duplicates))

    @classmethod
    def from_edges(
        cls, n: int, r: int, edges: Iterable[Iterable[int]], **kw
    ) -> "Hypergraph":
        """Build from edges given as iterables of 1-indexed labels."""
        return cls.from_edge_masks(n, r, (mask_from_labels(e) for e in edges), **kw)

    @classmethod
    def complete(cls, n: int, r: int) -> "Hypergraph":
        return cls.from_edge_masks(n, r, r_subsets(n, r))

    @classmethod
    def _make(cls, n: int, r: int, sorted_masks: tuple[int, ...]) -> "Hypergraph":
        """Unchecked constructor for callers that guarantee canonical form."""
        return cls(n, r, sorted_masks)

    @cached_property
    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edge_labels(self) -> list[tuple[int, ...]]:
        return [labels_from_mask(e) for e in self.edges]

    def __contains__(self, mask: int) -> bool:
        return mask in self.edge_set


@dataclass(frozen=True)
class ColoredFamily:
    """An ordered list of r-graphs F_1..F_k on a common vertex set [n]."""

    n: int
    r: int
    members: tuple[Hypergraph, ...]

    def __post_init__(self):
        if len(self.members) < 1:
            raise ValueError("a colored family needs at least one member")
        for i, h in enumerate(self.members):
            if h.n != self.n or h.r != self.r:
                raise ValueError(
                    f"member {i + 1} has (n, r) = ({h.n}, {h.r}), "
                    f"expected ({self.n}, {self.r})"
                )

    @property
    def k(self) -> int:
        return len(self.members)


def induced_subhypergraph(h: Hypergraph, s_mask: int) -> Hypergraph:
    """Edges of ``h`` entirely contained in ``s_mask``; labels preserved."""
    _check_vertex_mask(h, s_mask)
    # tuple() of a list, not of a generator: a generator's tuple is shrunk
    # after filling, and CPython then parks it on the free list of its new
    # size, where a caller that builds many of them can hold megabytes
    kept = tuple([e for e in h.edges if e & ~s_mask == 0])
    return Hypergraph._make(h.n, h.r, kept)


def delete_vertices(h: Hypergraph, s_mask: int) -> Hypergraph:
    """Subhypergraph induced by the complement of ``s_mask``."""
    _check_vertex_mask(h, s_mask)
    return induced_subhypergraph(h, h.full_mask & ~s_mask)


def neighborhood(h: Hypergraph, s_mask: int) -> list[int]:
    """All (r-|S|)-sets T disjoint from S with S ∪ T an edge, colex order."""
    _check_vertex_mask(h, s_mask)
    if s_mask.bit_count() >= h.r:
        raise ValueError(
            f"neighborhood needs |S| < r, got |S|={s_mask.bit_count()}, r={h.r}"
        )
    return [e & ~s_mask for e in h.edges if e & s_mask == s_mask]


def degree(h: Hypergraph, s_mask: int) -> int:
    return len(neighborhood(h, s_mask))


def _check_vertex_mask(h: Hypergraph, mask: int) -> None:
    if mask >> h.n:
        if mask < 0:
            raise ValueError(f"vertex set mask {mask} is negative")
        raise ValueError(
            f"vertex set {labels_from_mask(mask)} not contained in [{h.n}]"
        )


def _canonical_edges(masks: list[int], strict_duplicates: bool) -> tuple[int, ...]:
    """``masks`` without repeats, in ascending order.

    Each repeat raises under ``strict_duplicates``, else warns as it is
    met (attributed to the caller of the public function) and is dropped.
    """
    out = list(dict.fromkeys(masks))
    if len(out) < len(masks):
        seen: set[int] = set()
        for m in masks:
            if m in seen:
                if strict_duplicates:
                    raise ValueError(f"duplicate edge {labels_from_mask(m)}")
                warnings.warn(
                    f"duplicate edge {labels_from_mask(m)} dropped", stacklevel=3
                )
            seen.add(m)
    out.sort()
    return tuple(out)


def _ints(tokens: list[str], lineno: int) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError as exc:
        raise HypergraphFormatError(f"line {lineno}: {exc}") from None


def parse(text: str, *, strict_duplicates: bool = False) -> Hypergraph:
    """Parse the .hg text format.

    Format: first non-comment line ``n r``; every further non-comment line
    lists r distinct 1-indexed labels.  A label is any token that
    ``int()`` reads (so ``+1`` and ``01`` are 1), in the range [1, n].
    Lines starting with '#' are comments.  Duplicate edges warn and are
    dropped unless ``strict_duplicates`` is set.

    Each line is checked once.  A label token is read by ``int()`` and
    range-checked the first time it appears; a table from token text to
    vertex bit then serves every later use, so a label costs one lookup.
    The table holds only the tokens the text uses, whatever n is.
    """
    header: tuple[int, int] | None = None
    bits: dict[str, int] = {}
    masks: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if header is None:
            nums = _ints(tokens, lineno)
            if len(nums) != 2:
                raise HypergraphFormatError(
                    f"line {lineno}: header must be 'n r', got {raw.strip()!r}"
                )
            n, r = nums
            if not 1 <= r <= n:
                raise HypergraphFormatError(
                    f"line {lineno}: need 1 <= r <= n, got n={n}, r={r}"
                )
            header = (n, r)
            continue
        mask = 0
        try:
            for tok in tokens:
                mask |= bits[tok]
        except KeyError:
            nums = _ints(tokens, lineno)
            if any(v < 1 or v > n for v in nums):
                raise HypergraphFormatError(
                    f"line {lineno}: vertex label out of range [1, {n}]"
                ) from None
            mask = 0
            for tok, v in zip(tokens, nums):
                mask |= bits.setdefault(tok, 1 << (v - 1))
        if mask.bit_count() != r:
            raise HypergraphFormatError(
                f"line {lineno}: edge cardinality {mask.bit_count()} after "
                f"vertex dedup, expected {r}"
            )
        masks.append(mask)
    if header is None:
        raise HypergraphFormatError("missing 'n r' header line")
    try:
        return Hypergraph(*header, _canonical_edges(masks, strict_duplicates))
    except ValueError as exc:
        raise HypergraphFormatError(str(exc)) from None


def serialize(h: Hypergraph) -> str:
    """Canonical .hg text: colex edge order, single spaces, trailing newline.

    A vertex's label string is made the first time one of its edges is
    written and looked up by its bit after that.
    """
    names: dict[int, str] = {}
    lines = [f"{h.n} {h.r}"]
    for e in h.edges:
        parts = []
        while e:
            low = e & -e
            name = names.get(low)
            if name is None:
                name = names[low] = str(low.bit_length())
            parts.append(name)
            e ^= low
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def load(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def dump(h: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(h))
