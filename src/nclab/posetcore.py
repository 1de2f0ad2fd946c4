"""Finite graded posets: a generic engine and the refinement poset.

FinitePoset closes one down-mask per element along its covers and lists
down(b) as element indices.  The refinement poset holds canonical block
tuples and one int key per element, and lists down(b) as the keys of its
elements, sums of split keys read off b's blocks: it stores no order table
and no key-to-index table.  The split keys are dropped once a pass in index
order is done with them: a run's keys go after its last element read, and
only once every larger run that has it as a gap has been split
(build_refinement_poset).  Both list down(b) one rank at a time for the one
chain DP, which addresses elements by these ids; no poset is module-level.
"""

from bisect import bisect_left, insort
from itertools import chain, count, groupby
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .errors import DEFAULT_MAX_OBJECTS, InvariantViolation, ParameterError
from .ncpart import _first_block_position_sets, _nc_family
from .params import Params, _bits


def count_rank_multichains(poset, ids: Sequence[int], targets: Sequence[int]) -> int:
    """Weakly increasing tuples (x_1 <= ... <= x_l) with rank(x_i) = targets[i].

    Element b of the poset has id ids[b] and rank poset.ranks[b], and
    poset.down(b, r) lists the ids of every a <= b of rank r.  ways maps the
    id of each element on the previous target rank to the tuples so far that
    end there, so each step reads only the down-set's elements on that rank
    and holds ways on two ranks at most.  An id that ways lacks is no
    element of that rank and raises InvariantViolation naming b.
    """
    targets, ranks = tuple(targets), poset.ranks
    if any(b < a for a, b in zip(targets, targets[1:])):
        raise ParameterError(f"targets must be weakly increasing, got {targets}")
    if not targets:
        return 1
    if not 0 <= targets[0] <= targets[-1] <= max(ranks):
        raise ParameterError(f"targets must lie in [0, {max(ranks)}]")
    ways = {i: 1 for i, rk in zip(ids, ranks) if rk == targets[0]}
    for prev, r in zip(targets, targets[1:]):
        read, ways = ways.__getitem__, {}
        for b, rk in enumerate(ranks):
            if rk == r:
                try:
                    ways[ids[b]] = sum(map(read, poset.down(b, prev)))
                except KeyError:
                    raise InvariantViolation(
                        f"down({poset.elements[b]}, {prev}) holds an id not in the family at rank {prev}"
                    ) from None
    return sum(ways.values())


class FinitePoset:
    """Finite graded poset over an indexed element list, generated by its covers.

    Each cover (a, b) must step rank by exactly one, so the covers are the
    Hasse diagram.  The one order table, down[i] with bit j set iff j <= i,
    is OR-ed along them in ascending rank order, so index order need not be
    a linear extension.  nonnest.nn_poset and the tests' oracles build one.
    """

    __slots__ = ("elements", "ranks", "_down", "_covers", "_levels")

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
        self._levels: Optional[Dict[int, int]] = None

    def __len__(self) -> int:
        return len(self.elements)

    def down_mask(self, b: int) -> int:
        return self._down[b]

    def down(self, b: int, r: Optional[int] = None) -> List[int]:
        """The indices a <= b, b included, ascending; with r, only those of rank r."""
        mask = self._down[b]
        if r is not None:
            if self._levels is None:  # one mask per rank, built on first use
                self._levels = {
                    s: int("".join("1" if rk == s else "0" for rk in reversed(self.ranks)), 2)
                    for s in set(self.ranks)
                }
            mask &= self._levels.get(r, 0)
        return list(_bits(mask))

    def covers(self) -> Tuple[Tuple[int, int], ...]:
        """The Hasse diagram: the given covers (a, b), a below b, sorted."""
        return self._covers

    def assert_graded(self) -> None:
        """Check rank 0 minima and top-rank maxima; the constructor checks the covers."""
        top = max(self.ranks)
        covered = {a for a, _ in self._covers}  # maximal: the lower end of no cover
        for i, rk in enumerate(self.ranks):
            if self._down[i] == 1 << i and rk != 0:
                raise InvariantViolation(f"minimal element {i} has rank {rk}")
            if i not in covered and rk != top:
                raise InvariantViolation(f"maximal element {i} has rank {rk}")

    def count_rank_multichains(self, targets: Sequence[int]) -> int:
        return count_rank_multichains(self, range(len(self)), targets)


def _with_count(parts: Sequence[Tuple[List[int], List[int]]], unit: int, want: int) -> List[int]:
    """The sums of one key of every part whose block counts add up to want.

    Each part is a run's sorted key list with its count offsets: a key's
    block count is key // unit, and the keys of count d are
    keys[starts[d]:starts[d + 1]].  The sums are listed as down(b) lists
    them: the last part's key outermost, each part's keys in their order.
    Parts with one key are added up front, into base.  The other parts grow
    the sums part by part in buckets by count, acc[c - lo] holding those of
    count c.  A sum is kept only while the parts still to come can bring its
    count to want, so the counts kept form the range lo..hi, each of them
    reached (a block's splits have every count from 1 to its size over m).
    The next bucket of count e joins each bucket of count c with the keys of
    count d = e - c, for only the d that the range admits, in ascending
    order: that is key order, since the keys are sorted by count.
    """
    base = low = high = 0
    branching = []
    for keys, starts in parts:
        if len(keys) == 1:
            base += keys[0]
        else:
            first, last = keys[0] // unit, len(starts) - 2
            branching.append((keys, starts, first, last))
            low, high = low + first, high + last
    lo = hi = base // unit  # the keys carry their counts, so base carries theirs
    if not lo + low <= want <= lo + high:
        return []
    acc = [[base]]
    for keys, starts, first, last in branching:
        low, high = low - first, high - last  # the counts still to come
        next_lo, next_hi = max(lo + first, want - high), min(hi + last, want - low)
        grown = []
        for e in range(next_lo, next_hi + 1):
            bucket: List[int] = []
            for d in range(max(first, e - hi), min(last, e - lo) + 1):
                bucket += [k + g for g in keys[starts[d] : starts[d + 1]] for k in acc[e - d - lo]]
            grown.append(bucket)
        acc, lo, hi = grown, next_lo, next_hi
    return acc[0]


class _WholeKeys(dict):
    """block -> its partial key, kept whole, made at the block's first lookup."""

    __slots__ = ("_bit", "_unit")

    def __init__(self, bit: List[int], unit: int):
        self._bit, self._unit = bit, unit

    def __missing__(self, block: tuple) -> int:
        self[block] = key = self._unit + block[0] * sum(map(self._bit.__getitem__, block))
        return key


class RefinementPoset:
    """Block tuples, their ranks and keys, and down(b, r); see build_refinement_poset."""

    __slots__ = (
        "elements", "ranks", "keys", "_n", "_m", "_bit", "_block", "_layouts",
        "_last", "_pending", "_splits_of", "_live", "__weakref__",
    )

    def __init__(self, p: Params, elements: Sequence[tuple], ranks: Sequence[int]):
        self.elements, self.ranks, self._n, self._m = tuple(elements), tuple(ranks), p.n, p.m
        width = p.ground_size.bit_length()
        self._bit = [1 << (x * width) for x in range(p.ground_size + 1)]
        self._block = 1 << ((p.ground_size + 1) * width)  # one block in the count field
        self._layouts: Dict[int, tuple] = {}
        whole = _WholeKeys(self._bit, self._block)  # each block occurrence is hashed once, here
        last_by_key: Dict[int, int] = {}  # the last element holding each distinct block
        keys: List[int] = []
        for size, level in groupby(self.elements, len):  # elements of `size` blocks each
            blocks = list(map(whole.__getitem__, chain.from_iterable(level)))
            spots = dict(zip(blocks, count()))  # last spot in the level's blocks
            last_by_key.update((key, len(keys) + spot // size) for key, spot in spots.items())
            # An element's key is the sum of its `size` consecutive block keys.
            keys += map(sum, zip(*[iter(blocks)] * size))
        self.keys = tuple(keys)
        last = {block: last_by_key[key] for block, key in whole.items()}
        pending: Dict[tuple, int] = {}  # the runs that have each run as a gap and are not yet split
        for run in last:
            for low, high in self._layout(len(run))[0]:
                gap = run[low:high]
                pending[gap] = pending.get(gap, 0) + 1
        self._last, self._pending = last, pending
        self._splits_of: Dict[Tuple[int, ...], Tuple[List[int], List[int]]] = {}
        self._live: List[Tuple[int, Tuple[int, ...]]] = []  # (-last reader, run), sorted; see _retire

    def __len__(self) -> int:
        return len(self.elements)

    def _layout(self, size: int) -> tuple:
        # The first-block position sets of a run of `size` points, each with
        # the gaps it leaves, as indices into the distinct gap slices.
        layout = self._layouts.get(size)
        if layout is None:
            spans: Dict[Tuple[int, int], int] = {}
            shapes = tuple(
                (offsets, tuple(
                    spans.setdefault((low + 1, high), len(spans))
                    for low, high in zip(offsets, offsets[1:] + (size,))
                    if high > low + 1
                ))
                for offsets in _first_block_position_sets(size, self._m)
            )
            self._layouts[size] = layout = tuple(spans), shapes
        return layout

    def _splits(self, run: Tuple[int, ...]) -> Tuple[List[int], List[int]]:
        # Partial keys of the splits of `run`, by first-block decomposition
        # as in ncpart._classical_shapes, sorted, so by block count (the top
        # field), with the index where each count starts.
        entry = self._splits_of.get(run)
        if entry is None:
            spans, shapes = self._layout(len(run))
            gap_runs = [run[low:high] for low, high in spans]
            gaps = [self._splits(gap)[0] for gap in gap_runs]
            bits = [self._bit[x] for x in run]
            keys = []
            for offsets, gap_ids in shapes:
                part = [self._block + run[0] * sum(map(bits.__getitem__, offsets))]
                for j in gap_ids:
                    part = [k + g for k in part for g in gaps[j]]
                keys += part
            keys.sort()
            unit = self._block
            starts = [bisect_left(keys, d * unit) for d in range(keys[-1] // unit + 2)]
            self._splits_of[run] = entry = keys, starts
            pending = self._pending
            if pending.get(run, 0) <= 0:
                self._retire(run)
            for gap in gap_runs:
                pending[gap] = left = pending.get(gap, 0) - 1
                if left == 0:
                    self._retire(gap)
        return entry

    def _retire(self, run: Tuple[int, ...]) -> None:
        # `run` is split, and so is every run that has it as a gap: its keys
        # go at the first read past its last reader.
        insort(self._live, (-self._last.get(run, -1), run))

    def down(self, b: int, r: Optional[int] = None) -> List[int]:
        """The keys of the a <= b, b's own included; with r, only those of rank r, in that same order.

        One split per block of b, in every combination; with r, only the
        combinations with n - r blocks in all (_with_count).  First drops
        the retired runs whose last reader comes before b.  Only the
        lemma puts each sum in the family: a reader that finds a key it has
        no entry for raises InvariantViolation.
        """
        known, live = self._splits_of, self._live
        while live and -live[-1][0] < b:
            del known[live.pop()[1]]
        parts = [known.get(block) or self._splits(block) for block in self.elements[b]]
        if r is not None:
            return _with_count(parts, self._block, self._n - r)
        if len(parts) == 1:  # b is one block: a copy of its run's own list
            return parts[0][0][:]
        keys = [sum(splits[0] for splits, _ in parts if len(splits) == 1)]
        for splits, _ in parts:
            if len(splits) > 1:  # with nothing to add, a run's own list serves
                keys = splits if keys == [0] else [k + g for g in splits for k in keys]
        return keys

    def count_rank_multichains(self, targets: Sequence[int]) -> int:
        return count_rank_multichains(self, self.keys, targets)


def build_refinement_poset(p: Params, max_objects: int = DEFAULT_MAX_OBJECTS) -> RefinementPoset:
    """Refinement poset on the family of enumerate_nc(p), as canonical block tuples.

    The elements are the outputs of ncpart._nc_blocks, each checked by
    its shape check, ordered by rank n - len(blocks), then blocks: the order of
    enumerate_nc, stably sorted by rank.  No SetPartition is made.  The
    order is read off the blocks by the interval product lemma (Kreweras,
    Discrete Math. 1 (1972); Armstrong, arXiv:math/0611106, for m-divisible
    partitions).

    Lemma.  The a <= b in the family are exactly the partitions that split
    each block B of b into an m-divisible partition of B, non-crossing in
    B's increasing order.  Proof for t = 1 (all m-divisible non-crossing
    partitions): if a refines b, its blocks inside B have sizes divisible by
    m, and a crossing among them in B's order is one of a.  Conversely, glue
    such splits into a, which refines b and is m-divisible.  If w < x < y < z
    with w, y in a block X of a and x, z in another, Y, then X and Y lie
    either in one block of b, whose split then crosses, or in two, and then
    b crosses.  For t > 1, tilde_transform preserves refinement and carries
    the family onto the classical partitions that keep 1..t apart
    (ncpart._nc_blocks); their refinements keep 1..t apart too, so the
    a <= b are the images of the classical refinements of tilde_transform(b).
    Every block holds at most one point <= t, its minimum, which the
    relabelling sends to the minimum of the image block, fixing the rest: it
    keeps each block's order, and with it the splits.

    Keys.  K = sum over x of min(block of x) << (x * width), with
    width = (mn).bit_length(), holds each block minimum in its own field, so
    it fixes the partition; the number of blocks, at most n, sits in a top
    field of its own, above x = mn.  K is the one identity of an element:
    `keys` holds each element's K in index order, and down(b) lists the K of
    each a <= b.  K sums over blocks, so down(b) adds one partial key per
    block of b, in every combination: one add per comparable pair, and no
    key-to-index table.  A block's splits are kept sorted by key, hence by
    their number of blocks; a has n - rank(a) blocks, the sum over b's
    blocks of their splits' numbers, so down(b, r) combines only the runs
    of splits whose numbers add up to n - r; each block's count offsets
    (where each number starts in its sorted keys) let it visit only the
    numbers that can still reach n - r.  Its readers hold their values in
    dicts keyed by K (the M-triangle, the chain DP), so a sum outside the
    family, which would break the lemma, or of an element not yet read,
    finds no entry and raises InvariantViolation.  The tests compare
    down(b) with the cover-first poset (mn <= 10) and with all pairs
    (mn <= 8), and down(b, r) with down(b) filtered by rank.

    Release.  A run (a block, or a gap left by a first block) is split once
    and its keys and offsets are kept together until no read of a pass in
    index order needs them: they go at the first read past the last element
    holding the run as a block, and only after every larger run that has it
    as a gap has been split, since splitting that run reads them (each run
    counts those larger runs, from the distinct blocks, when the poset is
    built).  A pass that reads every element in index order, as the
    M-triangle does, thus splits every run exactly once: by the lemma each
    gap of a block of b is itself a block of an element of lower rank, read
    before b.  The bookkeeping is one sorted entry per split run and one
    comparison per read.  A run read again after its release, by a later
    pass or out of order, is split again: its keys are a function of its
    points and m alone, so the rebuilt list is the same list.
    """
    elements = _nc_family(p, max_objects)
    elements.sort(key=len, reverse=True)  # stable: rank n - len ascending, then blocks
    return RefinementPoset(p, elements, [p.n - len(blocks) for blocks in elements])
