"""Generic finite graded poset engine.

The order relation is stored as one bitmask per element (an arbitrary-size
Python int), which makes interval extraction, cover detection and the chain
dynamic programs cheap at desk scale.  Posets are immutable after
construction; the internal memo tables are write-once caches, so concurrent
readers are safe.
"""

from functools import lru_cache
from typing import Dict, Hashable, Iterator, Optional, Sequence, Tuple

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
    and `up[i]` the mask of j >= i.  An optional rank vector enables the
    graded queries; construction can assert the grading.
    """

    __slots__ = ("elements", "ranks", "_index", "_down", "_up", "_covers", "_mu_rows", "_topo")

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
        self._up = [0] * n
        for j in range(n):
            mask = self._down[j]
            if not (mask >> j) & 1:
                raise ParameterError("the order must be reflexive")
            for i in _bits(mask):
                self._up[i] |= 1 << j
        self.ranks = tuple(ranks) if ranks is not None else None
        self._index = {el: i for i, el in enumerate(self.elements)}
        if len(self._index) != n:
            raise ParameterError("elements must be pairwise distinct")
        self._covers = None
        self._mu_rows = {}
        self._topo = sorted(range(n), key=lambda i: self._down[i].bit_count())

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
        return self._up[a]

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
        for i in range(n):
            if not self.leq(i, i):
                raise InvariantViolation("order is not reflexive")
            if self._up[i] & self._down[i] != 1 << i:
                raise InvariantViolation("order is not antisymmetric")
        for i in range(n):
            for j in _bits(self._up[i]):
                if self._up[j] & ~self._up[i]:
                    raise InvariantViolation("order is not transitive")

    def covers(self) -> Tuple[Tuple[int, int], ...]:
        """All pairs (a, b) with a < b and nothing strictly between."""
        if self._covers is None:
            out = []
            for a in range(len(self.elements)):
                strict_up = self._up[a] & ~(1 << a)
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
        for i in range(len(self.elements)):
            if self._down[i] == 1 << i and self.ranks[i] != 0:
                raise InvariantViolation(f"minimal element {i} has rank {self.ranks[i]}")
            if self._up[i] == 1 << i and self.ranks[i] != top:
                raise InvariantViolation(f"maximal element {i} has rank {self.ranks[i]}")
        if expected_max_rank is not None and top != expected_max_rank:
            raise InvariantViolation(
                f"top rank is {top}, expected {expected_max_rank}"
            )

    def _moebius_row(self, a: int) -> Dict[int, int]:
        row = self._mu_rows.get(a)
        if row is not None:
            return row
        row = {a: 1}
        above = [b for b in self._topo if (self._up[a] >> b) & 1 and b != a]
        for b in above:
            interval = self._up[a] & self._down[b] & ~(1 << b)
            row[b] = -sum(row[c] for c in _bits(interval))
        self._mu_rows[a] = row
        return row

    def moebius(self, a: int, b: int) -> int:
        """Moebius value of the interval [a, b]."""
        if not self.leq(a, b):
            raise DomainError(f"element {a} is not below element {b}")
        return self._moebius_row(a)[b]

    def count_rank_multichains(self, targets: Sequence[int]) -> int:
        """Weakly increasing tuples (x_1 <= ... <= x_l) with rank(x_i) = targets[i]."""
        if self.ranks is None:
            raise ParameterError("rank-selected counting needs a rank function")
        targets = tuple(targets)
        if any(b < a for a, b in zip(targets, targets[1:])):
            raise ParameterError(f"targets must be weakly increasing, got {targets}")
        if any(not 0 <= r <= self.max_rank for r in targets):
            raise ParameterError(f"targets must lie in [0, {self.max_rank}]")
        if not targets:
            return 1
        ways = {i: 1 for i in _bits(self.level_mask(targets[0]))}
        for r in targets[1:]:
            prev_mask = 0
            for i in ways:
                prev_mask |= 1 << i
            ways = {
                i: sum(ways[j] for j in _bits(self._down[i] & prev_mask))
                for i in _bits(self.level_mask(r))
            }
        return sum(ways.values())

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
        if l == 1:
            return 1
        n = len(self.elements)
        counts = [1] * n
        for _ in range(l - 2):
            counts = [sum(counts[j] for j in _bits(self._down[i])) for i in range(n)]
        return sum(counts)


@lru_cache(maxsize=None)
def _refinement_poset_cached(m: int, n: int, t: int) -> FinitePoset:
    p = Params(m, n, t)
    parts = sorted(enumerate_nc(p, max_objects=None), key=lambda sp: (rank_of(sp, p), sp.blocks))
    ranks = tuple(rank_of(sp, p) for sp in parts)
    ids = [sp.block_ids() for sp in parts]
    size = len(parts)
    down = [1 << i for i in range(size)]
    for j in range(size):
        coarse = ids[j]
        for i in range(size):
            if ranks[i] >= ranks[j]:
                continue
            fine = parts[i].blocks
            for block in fine:
                target = coarse[block[0]]
                if any(coarse[x] != target for x in block):
                    break
            else:
                down[j] |= 1 << i
    poset = FinitePoset(parts, down, ranks)
    poset.assert_graded(expected_max_rank=n - t)
    return poset


def build_refinement_poset(
    p: Params, max_objects: int = DEFAULT_MAX_OBJECTS
) -> FinitePoset:
    """Refinement poset on enumerate_nc(p), graded by rank_of.

    The grading (covers step rank by exactly one, minima at rank 0, maxima at
    rank n - t) is asserted at construction.
    """
    enumerate_nc(p, max_objects=max_objects)  # runs the resource guard
    return _refinement_poset_cached(p.m, p.n, p.t)


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
