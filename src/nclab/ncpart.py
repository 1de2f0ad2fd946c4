"""Set partitions of {1..N} and the order-t non-crossing structure.

A partition is a t-partition if no block holds more than one of 1..t, and it
is non-crossing (in the t-aware sense) if no index quadruple i < j < k < l
realizes either forbidden pattern:

  * j <= t and i, l share a block while j, k share a different block, or
  * j > t  and i, k share a block while j, l share a different block.

For t = 1 only the second pattern can occur, so the test degenerates to the
classical non-crossing condition.  The literal predicates live in
tests/oracles.py; the generator needs none of them (_nc_blocks proves why).
All values here are immutable and all functions pure, so everything is safe
under concurrent callers.  Only the first-block position sets behind the
generator (keyed by size and m) are memoised.  Classical shapes are
streamed: each enumeration keeps its gap tables in a dict of its own and
frees them with its result, which the caller owns.  `census` tallies the
same stream without keeping the family, so it holds only the gap tables.
Generator outputs pass one exact shape check instead of the validating
constructor.
"""

import json
from collections import Counter
from functools import lru_cache
from itertools import product
from typing import Dict, Iterable, Iterator, Tuple

from . import closedform
from .errors import DomainError, InvariantViolation, ParameterError, ResourceLimitError
from .params import Params, Value

#: Default guard against runaway enumerations; the CLI can override it.
DEFAULT_MAX_OBJECTS = 10**7


def check_cap(predicted: int, max_objects: int, what: str) -> None:
    """The one size guard: ResourceLimitError, naming `what`, when `predicted` exceeds the cap."""
    if predicted > max_objects:
        raise ResourceLimitError(f"predicted {what}, more than the cap {max_objects}")


class SetPartition(Value):
    """Immutable set partition of {1..N} in canonical form.

    Canonical form sorts each block ascending and the blocks by their minimum
    element, so equality and hashing are structural and enumeration output is
    reproducible.  The constructor takes any iterable of iterables of
    elements.  `ground_size` is N, stored by the validation that proves the
    blocks cover {1..N}; it takes no part in equality or hashing.
    """

    _fields = ("blocks",)

    def __init__(self, blocks: Iterable[Iterable[int]]):
        # Element types are checked before any sort, which could otherwise
        # fail on mixed types with a bare TypeError.  tuple(block) is block
        # for a plain tuple, so a block that is already a sorted plain tuple
        # is kept as it is and partitions built from shared tuples share them.
        try:
            blocks = [tuple(block) for block in blocks]
        except TypeError:
            raise DomainError("each block must be an iterable of positive integers") from None
        seen = set()
        for block in blocks:
            if not block:
                raise DomainError("blocks must be non-empty")
            for x in block:
                if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                    raise DomainError(f"elements must be positive integers, got {x!r}")
                if x in seen:
                    raise DomainError(f"element {x} appears in two blocks")
                seen.add(x)
        n = len(seen)
        if seen and seen != set(range(1, n + 1)):
            raise DomainError("blocks must cover an initial segment {1..N} exactly")
        canon = tuple(sorted(
            block if list(block) == sorted(block) else tuple(sorted(block))
            for block in blocks
        ))
        vars(self).update(blocks=canon, ground_size=n)

    @classmethod
    def _trusted(cls, blocks: Tuple[Tuple[int, ...], ...], ground_size: int) -> "SetPartition":
        # Wraps blocks already in canonical form over {1..ground_size} without
        # re-validating them; only enumerate_nc calls it, on outputs of
        # _nc_blocks, which has checked their shape exactly.
        partition = object.__new__(cls)
        vars(partition).update(blocks=blocks, ground_size=ground_size)
        return partition

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def to_json_dict(self) -> dict:
        return {"n": self.ground_size, "blocks": [list(block) for block in self.blocks]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    def __str__(self) -> str:
        return "{" + ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks) + "}"


class BlockProfile(Value):
    """Counts of blocks by size class: counts[i-1] blocks of size m*i."""

    _fields = ("counts",)

    def __init__(self, counts: Tuple[int, ...]):
        vars(self).update(counts=counts)

    def weight_signature(self) -> Dict[int, int]:
        """Exponent map i -> multiplicity of the size-class variable x_i (zeros omitted)."""
        return {i: c for i, c in enumerate(self.counts, start=1) if c}

    def __str__(self) -> str:
        sig = self.weight_signature()
        if not sig:
            return "1"
        return " ".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in sorted(sig.items()))


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
    return BlockProfile(_profile_counts(map(len, partition.blocks), p))


def _profile_counts(sizes: Iterable[int], p: Params) -> Tuple[int, ...]:
    counts = [0] * p.n
    for size in sizes:
        if size % p.m:
            raise DomainError(f"block of size {size} is not divisible by m={p.m}")
        counts[size // p.m - 1] += 1
    return tuple(counts)


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


def _classical_shapes(m: int, size: int, start: int, tables: dict) -> Iterator[tuple]:
    # Yields each m-divisible classically non-crossing partition of the
    # points start..start+size-1 once, as its blocks sorted by minimum, via
    # first-block decomposition: the gaps between consecutive members of the
    # minimum's block (and the tail) are partitioned independently.  The gap
    # tables are composed many times, so each is built once into `tables`,
    # keyed by (size, start); the caller owns that dict and frees it.
    if size == 0:
        yield ()
        return
    for offsets in _first_block_position_sets(size, m):
        members = tuple(start + q for q in offsets)
        gaps = []
        for low, high in zip(members, members[1:] + (start + size,)):
            key = (high - low - 1, low + 1)
            if key not in tables:
                tables[key] = tuple(_classical_shapes(m, *key, tables))
            gaps.append(tables[key])
        # Member i precedes gap i, so the blocks stay sorted by minimum.
        for combo in product(*gaps):
            yield sum(combo, (members,))


def _check_shape(blocks: tuple, size: int) -> None:
    # Exact O(size) proof that a generator output is canonical over
    # {1..size}: blocks non-empty and ascending, minima ascending, and each
    # of 1..size present exactly once.
    seen = [False] * (size + 1)
    low = total = 0
    for block in blocks:
        if not block or block[0] <= low:
            raise InvariantViolation(f"shape {blocks}: empty block or minima out of order")
        low = block[0]
        prev = low - 1
        for x in block:
            if x <= prev or x > size or seen[x]:
                raise InvariantViolation(
                    f"shape {blocks}: block {block} is not ascending or repeats or exceeds {size}"
                )
            seen[x] = True
            prev = x
        total += len(block)
    if total != size:
        raise InvariantViolation(f"shape {blocks} does not cover 1..{size}")


def _nc_blocks(p: Params, max_objects: int) -> Iterator[tuple]:
    """Blocks of each m-divisible non-crossing t-partition of {1..mn}, canonical.

    Candidates are the classical m-divisible non-crossing partitions c, taken
    to b = tilde_transform(c, t), a bijection on all partitions of the ground
    set.  The only filter is that b be a t-partition, i.e. that 1..t lie in
    distinct blocks of c.  With the blocks of c sorted by minimum, that holds
    iff the first t minima are 1..t; those t blocks then hold one point <= t
    each, their minimum, and only they are relabelled.  Block i's minimum
    i+1 goes to t-i and its other points, all above t, stay, so the
    relabelled first t blocks in reverse order are ascending with minima
    1..t, below every later minimum: each output is in canonical form.

    Lemma.  If c is classically non-crossing and b is a t-partition, then b
    is non-crossing of order t.  Proof: take i < j < k < l in b.
      * Pattern j <= t, with i, l in C and j, k in B (B != C).  B holds only
        one point <= t, so t < k < l.  In c, the points t+1-j < t+1-i <= t
        < k < l lie in B, C, B, C: a classical crossing.
      * Pattern j > t, with i, k in C and j, l in B.  Then j, k and l are
        fixed points, and i goes to some i' < j (i' = t+1-i <= t if i <= t).
        In c, the points i' < j < k < l lie in C, B, C, B: a crossing.
    Either way c would cross, a contradiction.  Conversely, if b is in the
    family and c had a crossing w < x < y < z with w, y in X and x, z in Y,
    then y, z > t, since X holds at most one point <= t.  If x > t, the
    images of w, x, y, z in b form pattern j > t; if x <= t, the points
    t+1-x < t+1-w <= t < y < z of b lie in Y, X, X, Y, which is pattern
    j <= t.  So the candidates that pass are exactly the family.  The
    literal forbidden-quadruple scan, tests/oracles.py::is_noncrossing_t,
    never rejects one; the tests run it over every output as a check.

    Every output passes _check_shape, whose failure raises
    InvariantViolation.  Raises ResourceLimitError when the closed counting
    formula predicts more output (or more intermediate classical partitions)
    than `max_objects`.
    """
    m, n, t = p.m, p.n, p.t
    predicted = max(closedform.total_count(p), closedform.total_count(Params(m, n, 1)))
    check_cap(predicted, max_objects, f"{predicted} partitions for {p}")
    size = m * n
    for blocks in _classical_shapes(m, size, 1, {}):
        if t > 1:
            if len(blocks) < t or blocks[t - 1][0] != t:  # not a t-partition
                continue
            # Block i holds point i+1, which tilde_transform sends to t-i.
            blocks = tuple(
                (t - i,) + blocks[i][1:] for i in reversed(range(t))
            ) + blocks[t:]
        _check_shape(blocks, size)
        yield blocks


def enumerate_nc(p: Params, max_objects: int = DEFAULT_MAX_OBJECTS) -> Tuple[SetPartition, ...]:
    """All m-divisible non-crossing t-partitions of {1..mn}, canonically ordered.

    The outputs of _nc_blocks (see there for why they are exactly the
    family, in canonical form) are wrapped without re-validation; the tests
    check each against the literal scan tests/oracles.py::is_noncrossing_t
    and the validating constructor at every mn <= 10.  For t > 1
    the relabelling reorders them, so they are sorted.  At t = 1 they are
    the classical shapes as generated, which already come in increasing
    order.

    Lemma.  _classical_shapes(m, size, start) yields its shapes in strictly
    increasing lexicographic order.  Proof, by induction on size; size 0
    yields the single shape ().  The first block, `members`, runs through
    _first_block_position_sets in the order its depth-first search appends
    them: each position set before its extensions, extensions by ascending
    next position.  That is strictly increasing tuple order, since a proper
    prefix sorts first.  So shapes with different first blocks come out in
    order.  For fixed members, a shape is (members,) followed by one shape
    of each gap, and product() runs through the gap shapes in lexicographic
    order of their index tuple; each gap table lists the shapes of a smaller
    size, so it is in increasing order by induction.  Two shapes of the same gap partition
    the same points, so neither is a proper prefix of the other, and the
    first gap where two combinations differ decides the comparison of the
    concatenations the same way.  Hence the final sort would be a no-op.

    Raises ResourceLimitError when the closed counting formula predicts more
    output (or more intermediate classical partitions) than `max_objects`.
    """
    shapes = _nc_blocks(p, max_objects)
    if p.t > 1:
        shapes = sorted(shapes)
    trusted, size = SetPartition._trusted, p.ground_size
    return tuple(trusted(blocks, size) for blocks in shapes)


def census(p: Params, by: str, max_objects: int = DEFAULT_MAX_OBJECTS) -> Counter:
    """Tally the family of enumerate_nc(p) without keeping it.

    by="rank" counts the partitions of each rank n - #blocks, by="profile"
    those of each BlockProfile.counts tuple, and by="total" counts them all
    under the key "total".  The tallies read the stream behind enumerate_nc,
    so only its gap tables are held.  Raises what enumerate_nc raises, and
    DomainError for a block size not divisible by m.
    """
    shapes = _nc_blocks(p, max_objects)
    if by == "rank":
        return Counter(p.n - len(blocks) for blocks in shapes)
    if by == "profile":
        return Counter(_profile_counts(map(len, blocks), p) for blocks in shapes)
    if by == "total":
        return Counter(total=sum(1 for _ in shapes))
    raise ParameterError(f"census by must be rank, profile or total, got {by!r}")
