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
under concurrent callers; only the first-block position sets (keyed by size
and m) are memoised.  Each enumeration streams its shapes, keeping only the
gap tables read more than once, in a dict freed with its result.
"""

from collections import Counter
from functools import lru_cache
from itertools import product
from math import comb
from operator import ge
from typing import Dict, Iterable, Iterator, List, Tuple

from .errors import DEFAULT_MAX_OBJECTS, DomainError, InvariantViolation, ParameterError, check_cap
from .params import Params, Value


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
    # A depth-first walk with an explicit stack, so a block of any size is
    # safe: acc is the path, nexts[i] the next position tried after acc[i],
    # and each path is listed before the paths that extend it, in
    # tests/oracles.py::first_block_position_sets_recursive's order.
    out, acc, nexts = [(0,)] if m == 1 else [], [0], [1]
    while acc:
        pos = nexts[-1]
        if pos >= size:
            acc.pop()
            nexts.pop()
            continue
        nexts[-1] = pos + m
        acc.append(pos)
        nexts.append(pos + 1)
        if len(acc) % m == 0 and (size - pos - 1) % m == 0:
            out.append(tuple(acc))
    return tuple(out)


def _run_plan(m: int, size: int, apart: int, plans: dict) -> tuple:
    # (shapes, readers) of the run (size, apart) at offset 0, memoised in
    # `plans`: readers[(g, o, a)] counts its first blocks with a gap (g, o, a).
    # A first block is a path 0 = p_0 < p_1 < ... < size of steps 1 mod m,
    # the last leaving the block, with p_1 >= apart unless p_1 = size
    # (_classical_shapes); left[z] and right[z] count the paths from 0 to z
    # and from z to size, and weight[z] the gap shapes along those to z.
    # Every z > 0 reaches size, so only a step from a y off every path
    # (left[y] = 0) reads nothing.
    if (size, apart) not in plans:
        inner, first = max(apart - 1, 1), min(apart, size)
        steps = [(y, z) for z in range(1, size + 1) for y in range(z - 1, -1, -m) if y or z >= first]
        left, weight, right = [1] + [0] * size, [1] + [0] * size, [0] * size + [1]
        for y, z in steps:
            left[z] += left[y]
            weight[z] += weight[y] * _run_plan(m, z - y - 1, 1 if y else inner, plans)[0]
        for y, z in reversed(steps):
            right[y] += right[z]
        readers = {(z - y - 1, y + 1, 1 if y else inner): left[y] * right[z] for y, z in steps if left[y]}
        plans[size, apart] = weight[size], readers
    return plans[size, apart]


def _gap_plan(m: int, top: tuple) -> tuple:
    # Each gap's readers (first blocks, over every run reached from `top`),
    # the number of outputs and the number of shapes built into gap tables,
    # which hold every gap but those read once, as a first gap (streamed).
    plans, readers, rests, todo = {}, Counter(), set(), [top]
    outputs = _run_plan(m, top[0], top[2], plans)[0]
    while todo:
        size, start, apart = todo.pop()
        for (g, o, a), k in plans[size, apart][1].items():
            gap = (g, start + o, a)
            if gap not in readers:
                todo.append(gap)
            readers[gap] += k
            if o > 1:
                rests.add(gap)
    held = sum(plans[g, a][0] for g, s, a in readers if readers[g, s, a] > 1 or (g, s, a) in rests)
    return readers, outputs, held


def _gap_table(m: int, key: tuple, readers: Counter, tables: dict) -> tuple:
    # The shapes of a gap, kept in `tables` if another first block reads them.
    shapes = tables.get(key)
    if shapes is None:
        shapes = tuple(_classical_shapes(m, key, readers, tables))
        if readers[key] > 1:
            tables[key] = shapes
    return shapes


def _classical_shapes(m: int, key: tuple, readers: Counter, tables: dict) -> Iterator[tuple]:
    # Yields once each m-divisible classically non-crossing partition of the
    # run key = (size, start, apart), the points start..start+size-1 with the
    # first `apart` in distinct blocks, as its blocks sorted by minimum: the
    # gaps between consecutive members of the minimum's block (and the tail)
    # are partitioned independently, the first inheriting apart - 1 (see
    # _nc_blocks).  A first gap with one reader (_gap_plan) is streamed; any
    # other gap is built into a table, kept in `tables` if read again.
    size, start, apart = key
    if not size:
        yield ()
        return
    end = start + size
    for offsets in _first_block_position_sets(size, m):
        if len(offsets) > 1 and offsets[1] < apart:
            continue
        members = tuple(start + q for q in offsets)
        stops = members[1:] + (end,)
        head = (stops[0] - start - 1, start + 1, max(apart - 1, 1))
        rest = [_gap_table(m, (high - low - 1, low + 1, 1), readers, tables) for low, high in zip(stops, stops[1:])]
        heads = _gap_table(m, head, readers, tables) if readers[head] > 1 else _classical_shapes(m, head, readers, tables)
        # Member i precedes gap i, so the blocks stay sorted by minimum.
        for shape in heads:
            first = (members,) + shape
            for combo in product(*rest):
                yield sum(combo, first)


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

    Lemma (pruning).  A run's first `apart` points lie in distinct blocks
    iff its first block, which holds the first, holds no other of them, and
    the others (then all in gap 0, whose blocks are the run's blocks that
    meet it) lie in distinct blocks of gap 0's shape.  By induction from
    the run (mn, 1, t), the stream yields exactly the candidates that pass,
    in their old order.

    Raises InvariantViolation when an output fails the t-partition filter
    or the per-block check, and ResourceLimitError when the plan's closed
    step bound, or that plus the outputs and gap-table shapes, exceeds
    `max_objects`.
    """
    m, n, t, size = p.m, p.n, p.t, p.ground_size
    # _gap_plan's runs (S, a) have m | S <= mn and a <= t, and one of size
    # km visits m*k(k+1)/2 pairs (y, z), ceil(z/m) at each z: all its plans
    # visit at most t*m*C(n+2, 3).  It then reads one plan per gap key,
    # (km, s, 1) with 2 <= s <= mn + 1 - km or (km, t + 1 - a, a) with
    # 1 < a < t: at most m^2*C(n+2, 4) + (t-1)*m*C(n+2, 3) more readers.
    steps = m * (2 * t - 1) * comb(n + 2, 3) + m * m * comb(n + 2, 4)
    check_cap(steps, max_objects, f"planning {p} takes up to {steps} steps")
    top = (size, 1, t)
    readers, outputs, held = _gap_plan(m, top)
    what = f"predicted {outputs} partitions, {held} table shapes and {steps} plan steps for {p}"
    check_cap(outputs + held + steps, max_objects, what)
    masks, full = {}, (2 << size) - 2
    for blocks in _classical_shapes(m, top, readers, {}):
        if t > 1:
            if len(blocks) < t or blocks[t - 1][0] != t:
                raise InvariantViolation(f"shape {blocks} puts two of 1..{t} in one block")
            # Block i holds point i+1, which tilde_transform sends to t-i.
            blocks = tuple(
                (t - i,) + blocks[i][1:] for i in reversed(range(t))
            ) + blocks[t:]
        # Each distinct block is checked once (non-empty, ascending, inside
        # 1..mn) and its mask cached; the output is exact iff its minima
        # ascend and its masks are disjoint and cover 1..mn.
        low = seen = 0
        for block in blocks:
            mask = masks.get(block)
            if mask is None:
                if not block or block[0] < 1 or block[-1] > size or any(map(ge, block, block[1:])):
                    raise InvariantViolation(f"block {block} of {blocks} is empty, unsorted or past {size}")
                mask = masks[block] = sum(1 << x for x in block)
            if block[0] <= low or seen & mask:
                raise InvariantViolation(f"shape {blocks}: minima unsorted or a point twice")
            low, seen = block[0], seen | mask
        if seen != full:
            raise InvariantViolation(f"shape {blocks} does not cover 1..{size}")
        yield blocks


def _nc_family(p: Params, max_objects: int) -> List[tuple]:
    """The outputs of _nc_blocks in `enumerate` order: sorted, as the relabelling for t > 1 reorders them."""
    return sorted(_nc_blocks(p, max_objects))


def enumerate_nc(p: Params, max_objects: int = DEFAULT_MAX_OBJECTS) -> Tuple[SetPartition, ...]:
    """All m-divisible non-crossing t-partitions of {1..mn}, canonically ordered.

    The outputs of _nc_family (see _nc_blocks for why they are exactly the
    family, in canonical form) are wrapped without re-validation; the tests
    check each against the literal scan tests/oracles.py::is_noncrossing_t
    and the validating constructor at every mn <= 10.

    Raises ResourceLimitError when the prediction of _nc_blocks exceeds
    `max_objects`.
    """
    trusted, size = SetPartition._trusted, p.ground_size
    return tuple(trusted(blocks, size) for blocks in _nc_family(p, max_objects))


def census(p: Params, by: str, max_objects: int = DEFAULT_MAX_OBJECTS) -> Counter:
    """Tally the family of enumerate_nc(p) without keeping it.

    by="rank" counts the partitions of each rank n - #blocks, by="profile"
    those of each BlockProfile.counts tuple, and by="total" counts them all
    under the key "total".  The tallies read the stream behind enumerate_nc,
    so only the gap tables read again and a mask per block are held.
    Raises what enumerate_nc raises, and DomainError for a block size not
    divisible by m.
    """
    shapes = _nc_blocks(p, max_objects)
    if by == "rank":
        return Counter(p.n - len(blocks) for blocks in shapes)
    if by == "profile":
        return Counter(_profile_counts(map(len, blocks), p) for blocks in shapes)
    if by == "total":
        return Counter(total=sum(1 for _ in shapes))
    raise ParameterError(f"census by must be rank, profile or total, got {by!r}")
