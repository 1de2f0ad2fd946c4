"""Set partitions of {1..N} and the order-t non-crossing structure.

A partition is a t-partition if no block holds more than one of 1..t, and it
is non-crossing (in the t-aware sense) if no index quadruple i < j < k < l
realizes either forbidden pattern:

  * j <= t and i, l share a block while j, k share a different block, or
  * j > t  and i, k share a block while j, l share a different block.

For t = 1 only the second pattern can occur, so the test degenerates to the
classical non-crossing condition.  All values here are immutable and all
functions pure, so everything is safe under concurrent callers; the module
caches are write-once and keyed by immutable arguments.
"""

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Dict, Iterable, Tuple

from . import closedform
from .errors import DomainError, ParameterError, ResourceLimitError
from .params import Params

#: Default guard against runaway enumerations; the CLI can override it.
DEFAULT_MAX_OBJECTS = 10**7


@dataclass(frozen=True)
class SetPartition:
    """Immutable set partition of {1..N} in canonical form.

    Canonical form sorts each block ascending and the blocks by their minimum
    element, so equality and hashing are structural and enumeration output is
    reproducible.
    """

    blocks: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        canon = tuple(sorted(tuple(sorted(block)) for block in self.blocks))
        seen = set()
        for block in canon:
            if not block:
                raise DomainError("blocks must be non-empty")
            for x in block:
                if not isinstance(x, int) or x < 1:
                    raise DomainError(f"elements must be positive integers, got {x!r}")
                if x in seen:
                    raise DomainError(f"element {x} appears in two blocks")
                seen.add(x)
        n = len(seen)
        if seen and seen != set(range(1, n + 1)):
            raise DomainError("blocks must cover an initial segment {1..N} exactly")
        object.__setattr__(self, "blocks", canon)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        return cls(tuple(tuple(block) for block in blocks))

    @property
    def ground_size(self) -> int:
        return sum(len(block) for block in self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_ids(self) -> Tuple[int, ...]:
        """Array mapping element x to its block index, at position x (entry 0 unused)."""
        ids = [0] * (self.ground_size + 1)
        for index, block in enumerate(self.blocks):
            for x in block:
                ids[x] = index
        return tuple(ids)

    def to_json_dict(self) -> dict:
        return {"n": self.ground_size, "blocks": [list(block) for block in self.blocks]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, data: dict) -> "SetPartition":
        partition = cls.from_blocks(data["blocks"])
        if partition.ground_size != data.get("n", partition.ground_size):
            raise DomainError("declared ground size does not match the blocks")
        return partition

    def __str__(self) -> str:
        return "{" + ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks) + "}"


@dataclass(frozen=True)
class BlockProfile:
    """Counts of blocks by size class: counts[i-1] blocks of size m*i."""

    counts: Tuple[int, ...]

    def weight_signature(self) -> Dict[int, int]:
        """Exponent map i -> multiplicity of the size-class variable x_i (zeros omitted)."""
        return {i: c for i, c in enumerate(self.counts, start=1) if c}

    def __str__(self) -> str:
        sig = self.weight_signature()
        if not sig:
            return "1"
        return " ".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in sorted(sig.items()))


def is_t_partition(partition: SetPartition, t: int) -> bool:
    """True iff no block holds more than one element of {1..t}."""
    if not 1 <= t <= partition.ground_size:
        raise ParameterError(
            f"t must lie in [1, {partition.ground_size}], got {t}"
        )
    for block in partition.blocks:
        hits = 0
        for x in block:
            if x <= t:
                hits += 1
                if hits > 1:
                    return False
            else:
                break
    return True


def _has_forbidden_quadruple(bid: Tuple[int, ...], t: int) -> bool:
    # Literal scan of all index quadruples i < j < k < l against both
    # patterns; at desk scale N <= ~14 the O(N^4) bound is irrelevant.
    n = len(bid) - 1
    # Pattern for j <= t: i, l together and j, k together in another block.
    for j in range(2, min(t, n - 2) + 1):
        bj = bid[j]
        for k in range(j + 1, n):
            if bid[k] != bj:
                continue
            for i in range(1, j):
                bi = bid[i]
                if bi == bj:
                    continue
                for l in range(k + 1, n + 1):
                    if bid[l] == bi:
                        return True
    # Pattern for j > t: i, k together and j, l together in another block.
    for j in range(max(t + 1, 2), n - 1):
        bj = bid[j]
        for l in range(j + 2, n + 1):
            if bid[l] != bj:
                continue
            for i in range(1, j):
                bi = bid[i]
                if bi == bj:
                    continue
                for k in range(j + 1, l):
                    if bid[k] == bi:
                        return True
    return False


def is_noncrossing_t(partition: SetPartition, t: int) -> bool:
    """True iff no quadruple realizes a forbidden pattern for this t.

    The partition must be a t-partition; anything else is outside the domain
    of the order-t crossing test.
    """
    if not is_t_partition(partition, t):
        raise DomainError(f"partition {partition} is not a {t}-partition")
    return not _has_forbidden_quadruple(partition.block_ids(), t)


def refines(fine: SetPartition, coarse: SetPartition) -> bool:
    """True iff every block of `fine` is contained in some block of `coarse`."""
    if fine.ground_size != coarse.ground_size:
        raise DomainError(
            f"ground sizes differ: {fine.ground_size} vs {coarse.ground_size}"
        )
    ids = coarse.block_ids()
    for block in fine.blocks:
        target = ids[block[0]]
        for x in block:
            if ids[x] != target:
                return False
    return True


def rank_of(partition: SetPartition, p: Params) -> int:
    """Rank in the refinement order: n minus the number of blocks."""
    if partition.ground_size != p.ground_size:
        raise DomainError(
            f"partition lives on {partition.ground_size} elements, expected {p.ground_size}"
        )
    return p.n - partition.block_count


def block_profile(partition: SetPartition, p: Params) -> BlockProfile:
    """Profile b with b[i-1] = number of blocks of size m*i."""
    if partition.ground_size != p.ground_size:
        raise DomainError(
            f"partition lives on {partition.ground_size} elements, expected {p.ground_size}"
        )
    counts = [0] * p.n
    for block in partition.blocks:
        size = len(block)
        if size % p.m:
            raise DomainError(f"block of size {size} is not divisible by m={p.m}")
        counts[size // p.m - 1] += 1
    return BlockProfile(tuple(counts))


def weight_signature(partition: SetPartition, p: Params) -> Dict[int, int]:
    """Monomial view of the block profile: exponent of x_i per size class."""
    return block_profile(partition, p).weight_signature()


def tilde_transform(partition: SetPartition, t: int) -> SetPartition:
    """Relabel by i -> t+1-i for i <= t, fixing everything above t.

    The map is an involution; it carries the order-t non-crossing family
    onto part of the classical (t = 1) non-crossing family and back.
    """
    if not 1 <= t <= partition.ground_size:
        raise ParameterError(
            f"t must lie in [1, {partition.ground_size}], got {t}"
        )
    if t == 1:
        return partition
    relabel = lambda x: t + 1 - x if x <= t else x
    return SetPartition(
        tuple(tuple(relabel(x) for x in block) for block in partition.blocks)
    )


@lru_cache(maxsize=None)
def _first_block_position_sets(size: int, m: int) -> Tuple[Tuple[int, ...], ...]:
    # Position sets (starting at 0) usable as the block of the minimum in an
    # m-divisible non-crossing partition of `size` points: the block size and
    # every gap between chosen positions (and the tail) must be divisible by m.
    out = []

    def extend(acc):
        if len(acc) % m == 0 and (size - acc[-1] - 1) % m == 0:
            out.append(tuple(acc))
        for pos in range(acc[-1] + 1, size):
            if (pos - acc[-1] - 1) % m == 0:
                acc.append(pos)
                extend(acc)
                acc.pop()

    extend([0])
    return tuple(out)


@lru_cache(maxsize=None)
def _classical_shapes(m: int, size: int) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    # All m-divisible classically non-crossing partitions of range(size), as
    # sorted tuples of position blocks, via first-block decomposition: the
    # gaps between consecutive members of the minimum's block (and the tail)
    # are partitioned independently.
    if size == 0:
        return ((),)
    if size % m:
        return ()
    shapes = []
    for members in _first_block_position_sets(size, m):
        bounds = []
        prev = members[0]
        for pos in members[1:]:
            bounds.append((prev + 1, pos - prev - 1))
            prev = pos
        bounds.append((prev + 1, size - prev - 1))
        pieces = [_classical_shapes(m, length) for _, length in bounds]
        for combo in product(*pieces):
            blocks = [members]
            for (start, _), sub in zip(bounds, combo):
                blocks.extend(tuple(x + start for x in blk) for blk in sub)
            shapes.append(tuple(sorted(blocks)))
    return tuple(shapes)


@lru_cache(maxsize=None)
def _enumerate_nc_cached(m: int, n: int, t: int) -> Tuple[SetPartition, ...]:
    found = []
    for shape in _classical_shapes(m, m * n):
        classical = SetPartition(
            tuple(tuple(x + 1 for x in block) for block in shape)
        )
        candidate = tilde_transform(classical, t)
        if not is_t_partition(candidate, t):
            continue
        if _has_forbidden_quadruple(candidate.block_ids(), t):
            continue
        found.append(candidate)
    found.sort(key=lambda sp: sp.blocks)
    return tuple(found)


def enumerate_nc(p: Params, max_objects: int = DEFAULT_MAX_OBJECTS) -> Tuple[SetPartition, ...]:
    """All m-divisible non-crossing t-partitions of {1..mn}, canonically ordered.

    Candidates are produced by relabelling the classical m-divisible
    non-crossing partitions (the relabelling map is a bijection on all
    partitions of the ground set) and filtering with the literal order-t
    tests, so membership never rests on anything but the defining patterns.
    Raises ResourceLimitError when the closed counting formula predicts more
    output (or more intermediate classical partitions) than `max_objects`.
    """
    predicted = closedform.total_count(p)
    workload = closedform.total_count(Params(p.m, p.n, 1))
    if max_objects is not None and max(predicted, workload) > max_objects:
        raise ResourceLimitError(
            f"predicted {max(predicted, workload)} partitions for {p}, "
            f"more than the cap {max_objects}"
        )
    return _enumerate_nc_cached(p.m, p.n, p.t)
