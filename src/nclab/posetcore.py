"""Generic finite graded poset engine.

The order relation is stored as one bitmask per element (an arbitrary-size
Python int), which makes interval extraction, cover detection and the chain
dynamic programs cheap at desk scale.  A poset is built one way, from its
elements, its covers and its ranks.  The down-masks are its one order
table; up-sets are read off them or off the covers when needed.  Both are
filled in the constructor, so posets are immutable afterwards and
concurrent readers are safe.  No poset is kept at module level: each
build_refinement_poset call builds its own.
"""

from operator import itemgetter
from typing import Dict, Hashable, Iterator, Optional, Sequence, Tuple

from .errors import InvariantViolation, ParameterError
from .ncpart import DEFAULT_MAX_OBJECTS, enumerate_nc, rank_of
from .params import Params


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """Finite graded poset over an indexed element list, generated by its covers.

    `down[i]` is the bitmask of indices j with j <= i (including i itself);
    it is the only order table.  Each cover (a, b) must step rank by exactly
    one, which makes it irredundant: the given covers are the Hasse diagram,
    and down-masks are OR-ed along them in ascending rank order, so index
    order need not be a linear extension.
    """

    __slots__ = ("elements", "ranks", "_down", "_covers")

    def __init__(
        self,
        elements: Sequence[Hashable],
        covers: Sequence[Tuple[int, int]],
        ranks: Sequence[int],
    ):
        self.elements = tuple(elements)
        self.ranks = tuple(ranks)
        n = len(self.elements)
        if len(self.ranks) != n:
            raise ParameterError("one rank per element is required")
        if len(set(self.elements)) != n:
            raise ParameterError("elements must be pairwise distinct")
        lower = [[] for _ in range(n)]
        for a, b in covers:
            if not (0 <= a < n and 0 <= b < n):
                raise ParameterError(f"cover ({a}, {b}) needs both indices in [0, {n})")
            if self.ranks[b] != self.ranks[a] + 1:
                raise ParameterError(
                    f"cover ({a}, {b}) steps rank {self.ranks[a]} -> {self.ranks[b]}, not by one"
                )
            lower[b].append(a)
        down = [1 << i for i in range(n)]
        for b in sorted(range(n), key=self.ranks.__getitem__):
            for a in lower[b]:
                down[b] |= down[a]
        self._down = down
        self._covers = tuple(sorted(covers))

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, a: int, b: int) -> bool:
        return bool((self._down[b] >> a) & 1)

    def down_mask(self, b: int) -> int:
        return self._down[b]

    @property
    def max_rank(self) -> int:
        return max(self.ranks)

    def level_mask(self, r: int) -> int:
        mask = 0
        for i, rk in enumerate(self.ranks):
            if rk == r:
                mask |= 1 << i
        return mask

    def covers(self) -> Tuple[Tuple[int, int], ...]:
        """The Hasse diagram: the given covers (a, b), a below b, sorted."""
        return self._covers

    def assert_graded(self, expected_max_rank: Optional[int] = None) -> None:
        """Check rank 0 minima and the top rank; the constructor checks the covers."""
        top = self.max_rank
        covered = {a for a, _ in self._covers}  # maximal: the lower end of no cover
        for i, rk in enumerate(self.ranks):
            if self._down[i] == 1 << i and rk != 0:
                raise InvariantViolation(f"minimal element {i} has rank {rk}")
            if i not in covered and rk != top:
                raise InvariantViolation(f"maximal element {i} has rank {rk}")
        if expected_max_rank is not None and top != expected_max_rank:
            raise InvariantViolation(
                f"top rank is {top}, expected {expected_max_rank}"
            )

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

    Elements are ordered by rank, then blocks: enumerate_nc returns them
    sorted by blocks, and the sort by rank is stable.  The covers handed to
    FinitePoset are the single block merges that stay in the family, and the
    order is their transitive closure.  This rests on the family being
    graded by rank n - #blocks, so that every cover is one merge (Armstrong,
    arXiv:math/0611106, for the classical case).  The build checks what it
    can see of the grading: each merge steps rank by one (the constructor),
    minima sit at rank 0 and maxima at rank n - t (assert_graded).  A
    relation reachable only through a rank jump would be missed, so
    tests/test_posetcore.py compares elements, ranks, down-masks and covers
    with the all-pairs oracle in tests/oracles.py for every (m, n, t) with
    mn <= 8.

    Merges are looked up by an integer key.  With N = mn and
    width = N.bit_length(), a partition's key is K = sum over x of
    min(block of x) << (x * width).  Each minimum is at most N < 2^width,
    so every x has its own width-bit field and K is injective: it lists
    the block minimum of every element, which fixes the partition.  Merging
    blocks a and b with min a < min b moves every x in b from min b to
    min a, so the merged key is K - (min b - min a) * spread(b), where
    spread(b) = sum over x in b of 1 << (x * width).  K itself is the sum
    over blocks of min * spread.  One candidate merge then costs one
    multiply, one subtract and one dict lookup on an int.  The spreads are
    cached per block tuple, which many partitions share; nothing is kept
    per partition beyond the key index.
    """
    ranked = ((rank_of(sp, p), sp) for sp in enumerate_nc(p, max_objects=max_objects))
    ranks, parts = zip(*sorted(ranked, key=itemgetter(0)))
    width = p.ground_size.bit_length()
    spreads: Dict[Tuple[int, ...], int] = {}

    def spread(block: Tuple[int, ...]) -> int:
        value = spreads.get(block)
        if value is None:
            value = spreads[block] = sum(1 << (x * width) for x in block)
        return value

    index = {sum(block[0] * spread(block) for block in sp.blocks): i for i, sp in enumerate(parts)}
    covers = []
    for (key, i), sp in zip(index.items(), parts):
        blocks = sp.blocks
        for b in range(1, len(blocks)):
            step = spread(blocks[b])
            base = key - blocks[b][0] * step
            for a in range(b):
                j = index.get(base + blocks[a][0] * step)
                if j is not None:
                    covers.append((i, j))
    poset = FinitePoset(parts, covers, ranks)
    poset.assert_graded(expected_max_rank=p.n - p.t)
    return poset
