"""Generic finite graded poset engine.

The order relation is stored as one bitmask per element (an arbitrary-size
Python int), which makes interval extraction, cover detection and the chain
dynamic programs cheap at desk scale.  Posets are immutable after
construction; the only lazily filled tables (up-masks, covers) belong to
their poset and are written once, so concurrent readers are safe.  No poset
is kept at module level: each build_refinement_poset call builds its own.
"""

from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from .errors import DomainError, InvariantViolation, ParameterError
from .ncpart import DEFAULT_MAX_OBJECTS, enumerate_nc, rank_of, tilde_transform
from .params import Params


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """Explicit finite poset over an indexed element list.

    `down[i]` is the bitmask of indices j with j <= i (including i itself)
    and `up[i]` the mask of j >= i.  The up-masks are derived from the
    down-masks on first use unless `from_covers` already derived them.  An
    optional rank vector enables the graded queries; construction can assert
    the grading.
    """

    __slots__ = ("elements", "ranks", "_index", "_down", "_up", "_covers")

    def __init__(
        self,
        elements: Sequence[Hashable],
        down_masks: Sequence[int],
        ranks: Optional[Sequence[int]] = None,
    ):
        self.elements = tuple(elements)
        n = len(self.elements)
        if len(down_masks) != n:
            raise ParameterError("one down-mask per element is required")
        self._down = list(down_masks)
        for j, mask in enumerate(self._down):
            if not (mask >> j) & 1:
                raise ParameterError("the order must be reflexive")
        self.ranks = tuple(ranks) if ranks is not None else None
        self._index = {el: i for i, el in enumerate(self.elements)}
        if len(self._index) != n:
            raise ParameterError("elements must be pairwise distinct")
        self._up = None
        self._covers = None

    @classmethod
    def from_covers(
        cls,
        elements: Sequence[Hashable],
        covers: Sequence[Tuple[int, int]],
        ranks: Sequence[int],
    ) -> "FinitePoset":
        """Poset generated by its cover relations.

        Each cover (a, b) needs a < b, so index order is a linear extension:
        down-masks are OR-ed along the covers in one forward pass and
        up-masks in one reverse pass.  Each cover must also step rank by
        exactly one, which makes it irredundant: the given covers are stored
        as the Hasse diagram and `covers()` does not recompute them.
        """
        n = len(elements)
        if len(ranks) != n:
            raise ParameterError("one rank per element is required")
        lower = [[] for _ in range(n)]
        for a, b in covers:
            if not 0 <= a < b < n:
                raise ParameterError(f"cover ({a}, {b}) needs 0 <= a < b < {n}")
            if ranks[b] != ranks[a] + 1:
                raise ParameterError(
                    f"cover ({a}, {b}) steps rank {ranks[a]} -> {ranks[b]}, not by one"
                )
            lower[b].append(a)
        down = [1 << i for i in range(n)]
        for b in range(n):
            for a in lower[b]:
                down[b] |= down[a]
        up = [1 << i for i in range(n)]
        for b in reversed(range(n)):
            for a in lower[b]:
                up[a] |= up[b]
        poset = cls(elements, down, ranks)
        poset._up = up
        poset._covers = tuple(sorted(covers))
        return poset

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, element: Hashable) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise DomainError(f"{element!r} is not a poset element") from None

    def leq(self, a: int, b: int) -> bool:
        return bool((self._down[b] >> a) & 1)

    def down_mask(self, b: int) -> int:
        return self._down[b]

    def up_mask(self, a: int) -> int:
        return self._ups()[a]

    def _ups(self) -> List[int]:
        if self._up is None:
            up = [0] * len(self.elements)
            for j, mask in enumerate(self._down):
                for i in _bits(mask):
                    up[i] |= 1 << j
            self._up = up
        return self._up

    def rank(self, i: int) -> int:
        if self.ranks is None:
            raise ParameterError("this poset carries no rank function")
        return self.ranks[i]

    @property
    def max_rank(self) -> int:
        if self.ranks is None:
            raise ParameterError("this poset carries no rank function")
        return max(self.ranks)

    def level_mask(self, r: int) -> int:
        mask = 0
        for i, rk in enumerate(self.ranks):
            if rk == r:
                mask |= 1 << i
        return mask

    def validate_partial_order(self) -> None:
        """Assert reflexivity, antisymmetry and transitivity (test support)."""
        n = len(self.elements)
        up = self._ups()
        for i in range(n):
            if not self.leq(i, i):
                raise InvariantViolation("order is not reflexive")
            if up[i] & self._down[i] != 1 << i:
                raise InvariantViolation("order is not antisymmetric")
        for i in range(n):
            for j in _bits(up[i]):
                if up[j] & ~up[i]:
                    raise InvariantViolation("order is not transitive")

    def covers(self) -> Tuple[Tuple[int, int], ...]:
        """All pairs (a, b) with a < b and nothing strictly between."""
        if self._covers is None:
            out = []
            for a, up in enumerate(self._ups()):
                strict_up = up & ~(1 << a)
                for b in _bits(strict_up):
                    between = strict_up & self._down[b] & ~(1 << b)
                    if not between:
                        out.append((a, b))
            self._covers = tuple(sorted(out))
        return self._covers

    def assert_graded(self, expected_max_rank: Optional[int] = None) -> None:
        """Check rank 0 minima, covers stepping by one, and the top rank."""
        if self.ranks is None:
            raise ParameterError("gradedness needs a rank function")
        for a, b in self.covers():
            if self.ranks[b] != self.ranks[a] + 1:
                raise InvariantViolation(
                    f"cover {a} -> {b} jumps rank {self.ranks[a]} -> {self.ranks[b]}"
                )
        top = self.max_rank
        for i, up in enumerate(self._ups()):
            if self._down[i] == 1 << i and self.ranks[i] != 0:
                raise InvariantViolation(f"minimal element {i} has rank {self.ranks[i]}")
            if up == 1 << i and self.ranks[i] != top:
                raise InvariantViolation(f"maximal element {i} has rank {self.ranks[i]}")
        if expected_max_rank is not None and top != expected_max_rank:
            raise InvariantViolation(
                f"top rank is {top}, expected {expected_max_rank}"
            )

    def _moebius_row(self, a: int) -> Dict[int, int]:
        """mu(a, b) for every b >= a, recomputed on each call."""
        up_a = self._ups()[a]
        row = {a: 1}
        # Down-set size orders the up-set by a linear extension.
        above = sorted(_bits(up_a & ~(1 << a)), key=lambda b: self._down[b].bit_count())
        for b in above:
            interval = up_a & self._down[b] & ~(1 << b)
            row[b] = -sum(row[c] for c in _bits(interval))
        return row

    def moebius(self, a: int, b: int) -> int:
        """Moebius value of the interval [a, b]."""
        if not self.leq(a, b):
            raise DomainError(f"element {a} is not below element {b}")
        return self._moebius_row(a)[b]

    def _count_multichains(self, levels: Sequence[int]) -> int:
        """Weakly increasing tuples (x_1 <= ... <= x_l) with x_i in the mask levels[i]."""
        if not levels:
            return 1
        ways = dict.fromkeys(_bits(levels[0]), 1)
        for prev, level in zip(levels, levels[1:]):
            ways = {i: sum(ways[j] for j in _bits(self._down[i] & prev)) for i in _bits(level)}
        return sum(ways.values())

    def count_rank_multichains(self, targets: Sequence[int]) -> int:
        """Weakly increasing tuples (x_1 <= ... <= x_l) with rank(x_i) = targets[i]."""
        if self.ranks is None:
            raise ParameterError("rank-selected counting needs a rank function")
        targets = tuple(targets)
        if any(b < a for a, b in zip(targets, targets[1:])):
            raise ParameterError(f"targets must be weakly increasing, got {targets}")
        if any(not 0 <= r <= self.max_rank for r in targets):
            raise ParameterError(f"targets must lie in [0, {self.max_rank}]")
        return self._count_multichains([self.level_mask(r) for r in targets])

    def count_maximal_chains(self) -> int:
        """Saturated chains from rank 0 to the top rank.

        A poset whose elements all sit at rank 0 counts as having exactly one
        (empty) chain.
        """
        top = self.max_rank
        if top == 0:
            return 1
        return self.count_rank_multichains(range(top + 1))

    def zeta_brute(self, l: int) -> int:
        """Number of weakly increasing (l-1)-tuples; 1 for l = 1, |P| for l = 2."""
        if l < 1:
            raise ParameterError(f"zeta argument l must be at least 1, got {l}")
        return self._count_multichains([(1 << len(self.elements)) - 1] * (l - 1))


def build_refinement_poset(
    p: Params, max_objects: int = DEFAULT_MAX_OBJECTS
) -> FinitePoset:
    """Refinement poset on enumerate_nc(p), graded by rank_of.

    Built cover-first: the covers are the single block merges that stay in
    the family, and the order is their transitive closure.  This rests on
    the family being graded by rank n - #blocks, so that every cover is one
    merge (Armstrong, arXiv:math/0611106, for the classical case).  The
    construction asserts what it can see of the grading (minima at rank 0,
    maxima at rank n - t); a relation reachable only through a rank jump
    would be missed, so tests/test_posetcore.py compares elements, ranks,
    down-masks and covers with the all-pairs oracle in tests/oracles.py for
    every (m, n, t) with mn <= 8.
    """
    parts = sorted(
        enumerate_nc(p, max_objects=max_objects), key=lambda sp: (rank_of(sp, p), sp.blocks)
    )
    index = {sp.blocks: i for i, sp in enumerate(parts)}
    covers = []
    for i, sp in enumerate(parts):
        blocks = sp.blocks
        # Merging blocks a < b keeps the canonical order: the merged block
        # starts at blocks[a][0] and stays in place.
        for a in range(len(blocks)):
            for b in range(a + 1, len(blocks)):
                merged = tuple(sorted(blocks[a] + blocks[b]))
                j = index.get(blocks[:a] + (merged,) + blocks[a + 1 : b] + blocks[b + 1 :])
                if j is not None:
                    covers.append((i, j))
    poset = FinitePoset.from_covers(parts, covers, tuple(rank_of(sp, p) for sp in parts))
    poset.assert_graded(expected_max_rank=p.n - p.t)
    return poset


def verify_ideal_embedding(p: Params, max_objects: int = DEFAULT_MAX_OBJECTS) -> bool:
    """True iff the relabelled order-t family sits as a down-set in the classical one."""
    classical = build_refinement_poset(Params(p.m, p.n, 1), max_objects=max_objects)
    image = 0
    for part in enumerate_nc(p, max_objects=max_objects):
        moved = tilde_transform(part, p.t)
        try:
            idx = classical.index_of(moved)
        except DomainError:
            return False
        image |= 1 << idx
    for idx in _bits(image):
        if classical.down_mask(idx) & ~image:
            return False
    return True
