"""Triangular pair poset, nested filter chains, and floor statistics.

The ground poset T_n consists of the pairs (i, j) with 1 <= i < j <= n,
ordered by (i, j) <= (k, l) iff i >= k and j <= l (interval containment).
T_{n,t} keeps the pairs with j > t; its up-closed subsets ("t-filters") are
in bijection with monotone integer vectors, which is how they are enumerated
here.  Filters and chains are exposed as immutable value objects; internally
a filter is a grid bitmask, pair (i, j) at bit i*(n+1) + j, and a chain one
int key of its filters' positions.  The chain generator works on the filters'
monotone vectors, where every closure condition becomes a height comparison.
"""

import json
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import islice
from operator import ge, gt, lshift, ne
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from . import closedform
from .errors import DEFAULT_MAX_OBJECTS, DomainError, InvariantViolation, ParameterError, check_cap
from .params import VARIANTS, Params, Value, _bits
from .polyalg import BivariatePolynomial, h_triangle_closed

Pair = Tuple[int, int]


def triangular_pairs(n: int) -> Tuple[Pair, ...]:
    """All pairs (i, j) with 1 <= i < j <= n, lexicographically ordered."""
    if n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
    return tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1))


def pair_leq(a: Pair, b: Pair) -> bool:
    """(i, j) below (k, l) iff the interval [i, j] sits inside [k, l]."""
    return a[0] >= b[0] and a[1] <= b[1]


class _Universe:
    """Grid layout for one n: pair (i, j) at bit i*(n+1) + j, all pairs below bit `stride`."""

    def __init__(self, n: int):
        self.n = n
        self.width = n + 1
        self.stride = n * self.width
        self.pairs = triangular_pairs(n)
        self.index = {(i, j): i * self.width + j for (i, j) in self.pairs}
        self._pair_at = {k: pair for pair, k in self.index.items()}
        self.full_mask = sum(1 << k for k in self.index.values())
        self.above = {
            k: sum(1 << self.index[other] for other in self.pairs if pair_leq(pair, other))
            for pair, k in self.index.items()
        }

    def mask_of(self, pairs) -> int:
        mask = 0
        for pair in pairs:
            try:
                mask |= 1 << self.index[pair]
            except KeyError:
                raise DomainError(f"{pair} is not a pair of the degree-{self.n} poset") from None
        return mask

    def pairs_of(self, mask: int) -> FrozenSet[Pair]:
        return frozenset([self._pair_at[k] for k in _bits(mask)])

    def minimal(self, mask: int) -> int:
        """The members of an up-closed mask with no other member below them."""
        # The lower covers of (i, j), (i+1, j) and (i, j-1), sit at bits
        # k + (n+1) and k - 1; a bit standing for no pair is never set.
        return mask & ~(mask >> self.width) & ~(mask << 1)


@lru_cache(maxsize=None)
def _universe(n: int) -> _Universe:
    return _Universe(n)


@lru_cache(maxsize=None)
def _restricted_mask(n: int, t: int) -> int:
    u = _universe(n)
    return sum(1 << k for (_, j), k in u.index.items() if j > t)


@lru_cache(maxsize=None)
def _staircase_mask(n: int, t: int) -> int:
    # Minimal elements of the restricted poset: (i, i+1) for t <= i <= n-1.
    u = _universe(n)
    return sum(1 << u.index[(i, i + 1)] for i in range(t, n))


@lru_cache(maxsize=None)
def _tfilter_masks(n: int, t: int) -> Tuple[int, ...]:
    # Filters of the restricted poset correspond to weakly increasing vectors
    # (a_{t+1}, ..., a_n) with 0 <= a_j <= j-1: column j contains the pairs
    # (1, j), ..., (a_j, j).  The list is lexicographic in that vector.  For
    # t > 1 these are the 1-filters with no pair in a column j <= t (T_{n,t}
    # is an up-set of T_n), the same int objects.  Prefix lemma: they are
    # the first entries of the t = 1 tuple, as their vectors, with a_2 = ...
    # = a_t = 0, are the smallest; so their positions there are their own.
    if t > 1:
        low = _universe(n).full_mask & ~_restricted_mask(n, t)
        return tuple([mask for mask in _tfilter_masks(n, 1) if not mask & low])
    tops = [sum(1 << (i * (n + 1)) for i in range(1, a + 1)) for a in range(n)]
    lasts, masks = [0], [0]  # the last entry and the mask of each prefix
    for j in range(2, n + 1):
        column = [top << j for top in tops[:j]]
        masks = [mask | column[a] for last, mask in zip(lasts, masks) for a in range(last, j)]
        if j < n:
            lasts = [a for last in lasts for a in range(last, j)]
    return tuple(masks)


@lru_cache(maxsize=1)
def _height_tables(n: int, t: int, variant: str) -> tuple:
    """Column-height tables of the filters, in _tfilter_masks(n, t) order, for _generate_chains.

    Per filter f, with a_l its column-l height (a_0 = a_1 = ... = a_t = 0):
    heights[f] = (a_0, ..., a_n); below[f][v] is the largest column y with
    a_y <= v, for 0 <= v < n; short[f][y] is the largest ambient column
    x <= y with a_x < x - 1, else 0.  Filter positions: the filters with
    given heights before column l and a_l = w come in one block of N_l(w)
    positions, N_l(w) being the number of completions a_{l+1}, ..., a_n,
    so f sits at the sum over l > t of rank[l][a_l] - rank[l][a_{l-1}],
    where rank[l][a] is the sum of N_l(w) over w < a.  Only the tables in
    use are kept: a family is generated at one (n, t, variant) at a time,
    and the tables of another are dropped when it asks for its own.
    """
    heights = [(0,) * (t + 1)]
    for l in range(t + 1, n + 1):  # the vectors in _tfilter_masks order
        heights = [h + (a,) for h in heights for a in range(h[-1], l)]
    below = [tuple([bisect_right(h, v) - 1 for v in range(n)]) for h in heights]
    first = 1 if variant == "paper" else t + 1
    short = []
    for h in heights:
        row = [0] * (n + 1)
        for x in range(1, n + 1):
            row[x] = x if x >= first and h[x] < x - 1 else row[x - 1]
        short.append(tuple(row))
    rank: List[Tuple[int, ...]] = [()] * (n + 1)
    ways = [1] * n  # N_n(w)
    for l in range(n, t, -1):
        rank[l] = tuple(sum(ways[:a]) for a in range(l))
        ways = [sum(ways[w : l]) for w in range(l - 1)]  # N_{l-1}(w): a_l in [w, l-1]
    return heights, below, short, rank


class TFilter(Value):
    """Up-closed subset of the pairs (i, j) with i < j and j > t."""

    _fields = ("n", "t", "pairs")

    def __init__(self, n: int, t: int, pairs: FrozenSet[Pair]):
        if not 1 <= t <= n:
            raise ParameterError(f"need 1 <= t <= n, got t={t}, n={n}")
        pairs = frozenset(tuple(pair) for pair in pairs)
        u = _universe(n)
        mask = u.mask_of(pairs)
        if mask & ~_restricted_mask(n, t):
            raise DomainError(f"a member has second coordinate <= t={t}")
        # The shifts move each pair to its upper covers (i-1, j) and (i, j+1).
        if ((mask >> u.width) | (mask << 1)) & u.full_mask & ~mask:
            raise DomainError("the member set is not up-closed")
        vars(self).update(n=n, t=t, pairs=pairs, _mask=mask)

    @property
    def mask(self) -> int:
        return self._mask

    def min_elements(self) -> FrozenSet[Pair]:
        """Members with no other member below them in the pair order."""
        u = _universe(self.n)
        return u.pairs_of(u.minimal(self._mask))

    def __le__(self, other: "TFilter") -> bool:
        if (self.n, self.t) != (other.n, other.t):
            raise DomainError("filters live on different pair posets")
        return self.pairs <= other.pairs


def _filter_from_mask(n: int, t: int, mask: int) -> TFilter:
    return TFilter(n, t, _universe(n).pairs_of(mask))


def all_t_filters(n: int, t: int) -> Tuple[TFilter, ...]:
    """Every t-filter of the degree-n restricted pair poset, in stable order."""
    Params(1, n, t)  # validates the (n, t) combination
    return tuple(_filter_from_mask(n, t, mask) for mask in _tfilter_masks(n, t))


class FilterChain(Value):
    """Weakly nested tuple (V_m, ..., V_1) of t-filters, largest index first."""

    _fields = ("filters",)

    def __init__(self, filters: Tuple[TFilter, ...]):
        if not filters:
            raise ParameterError("a chain needs at least one component")
        filters = tuple(filters)
        vars(self).update(filters=filters)
        n, t = filters[0].n, filters[0].t
        for f in filters:
            if (f.n, f.t) != (n, t):
                raise DomainError("chain components live on different pair posets")
        for smaller, larger in zip(filters, filters[1:]):
            if not smaller.pairs <= larger.pairs:
                raise DomainError("chain components must be nested V_m <= ... <= V_1")


def _chain_json(m: int, n: int, key: int) -> str:
    """The `enumerate` line of a chain key: its component masks as lists of pairs.

    Grid bit order is lexicographic pair order, so each list comes sorted.
    """
    filters = [[divmod(k, n + 1) for k in _bits(mask)] for mask in _chain_masks(m, n, key)]
    return json.dumps({"m": m, "filters": filters}, separators=(",", ":"))


def _generate_chains(m: int, n: int, t: int, variant: str, max_objects: int) -> List[int]:
    """The chain keys, ascending; ResourceLimitError once they exceed `max_objects`.

    The key of (V_m, ..., V_1) is the sum of pos(V_k) << (k - 1) * width,
    pos the position in _tfilter_masks(n, 1), width the bit length of its
    size (decoded by _chain_masks).  A filter V is its column-height
    vector: (i, l) is in V iff i <= a_l, with a weakly increasing, a_l <=
    l - 1, and a_l = 0 for l <= t (and a_0 = 0).  Let A, B, C be the
    vectors of filters V_a, V_b, W, and Amb the ambient pair set: every
    pair ("paper") or those with l > t ("adapted"); a column x is ambient
    when its pairs are.

    Height lemma.  (1) V_a + V_b <= W iff A[B[l]] <= C[l] for every l.
    Column l of V_a + V_b holds i iff some j has (j, l) in V_b, i.e.
    j <= B[l], and (i, j) in V_a, i.e. i <= A[j] (then i < j holds by
    itself).  A is monotone, so the largest such i is A[B[l]]: the column
    is {1, ..., A[B[l]]}, inside W iff A[B[l]] <= C[l].  (2) (Amb - V_a) +
    (Amb - V_b) misses W iff A[x] >= min(x - 1, C[l]) for every l and
    every ambient x with B[l] < x < l.  The pairs (x, l) of Amb - V_b are
    those with B[l] < x < l, column l ambient; the pairs (i, x) of
    Amb - V_a are those with A[x] < i < x, column x ambient.  Their sums
    (i, l) miss W iff no such i is at most C[l], i.e. A[x] >=
    min(x - 1, C[l]).  Column l need not be ambient: where it is not,
    l <= t and C[l] = 0.  By (1), every filter is sum-closed: A[l] < l, so
    A[A[l]] <= A[l].

    Generation (below_J, short_J and the positions: _height_tables).  V_m
    runs over every filter; alone it meets no condition (V_m + V_m <= V_m).
    Under each V_m, level k = m-1, ..., 1 extends each prefix (V_m, ...,
    V_{k+1}) that level k+1 left by every V_k, built column by column,
    l = t+1, ..., n, where it meets each condition of smaller index k.  Let
    K be its vector and T the target of each condition, V_{min(k+j, m)} or
    V_{k+j}, already fixed since its index exceeds k.  For j > k:
    - nesting, V_{k+1} <= V_k: K[l] >= V_{k+1}[l];
    - V_k + V_j <= T: K[J[l]] <= T[l], an upper bound at column J[l];
    - V_j + V_k <= T: J[K[l]] <= T[l], i.e. K[l] <= below_J[T[l]];
    - (Amb - V_k) + (Amb - V_j) misses T, for k + j <= m: K[x] >=
      min(x - 1, T[l]) for ambient x with J[l] < x < l.  J and T are
      monotone, so the largest of these at x comes from the last l with
      J[l] < x, which is below_J[x - 1], when that exceeds x;
    - (Amb - V_j) + (Amb - V_k) misses T, for k + j <= m: no ambient x
      with K[l] < x < l may have J[x] < min(x - 1, T[l]).  Such x have
      J[x] < T[l], i.e. x <= below_J[T[l] - 1], so K[l] >=
      short_J[min(l - 1, below_J[T[l] - 1])].
    Each is a bound on one column, set once per prefix.  The upper bounds
    are closed downward (K[x] <= K[x+1] <= hi[x+1]).  Then
    every value in [max(lo[l], K[l-1]), hi[l]] extends to some vector,
    and the level has no candidate iff some lo[l] > hi[l].  The squares
    (j = k, target S = V_{min(2k, m)}) bound K[l] by the columns before
    it.  K[K[l]] <= S[l] iff K[l] is at most the last column x < l with
    K[x] <= S[l].  For 2k <= m, the complement square needs K[l] >= every
    ambient x < l with K[x] < min(x - 1, S[l]).  Those x come before the
    first column where K reaches S[l], so the bound is the largest short
    column there, kept column by column in D.  So every condition of every
    chain is checked, and no candidate is built and then dropped for the
    bounds.  Only the squares can leave a prefix with no completion.

    Order.  Values rise at each column, so each level meets its filters in
    lexicographic vector order, which is _tfilter_masks order.  Each level
    keeps its prefixes' order, so the chains come lexicographic in (V_m, ...,
    V_1) by filter position, the order of the closure-testing generator
    this one replaced (tests/oracles.py::chains_by_closure), and ascending
    key order by the prefix lemma (_tfilter_masks).
    """
    heights, below, short, rank = _height_tables(n, t, variant)
    full = heights[-1]  # the last filter holds every pair: a_l = l - 1 for l > t
    first = 1 if variant == "paper" else t + 1  # the first ambient column
    width = len(_tfilter_masks(n, 1)).bit_length()
    field = (1 << width) - 1
    columns = range(t + 1, n + 1)
    # Checked once per prefix, the refusal names the first count past the cap.
    held = f"{variant} chains for {Params(m, n, t)} reached {max_objects + 1}"
    if m == 1:  # the chains are the filters
        check_cap(len(heights), max_objects, held)
        return list(range(len(heights)))
    chains: List[int] = []
    K = [0] * (n + 1)  # the vector of V_k, columns < l chosen
    D = list(short[0])  # the largest short column <= x of K; short[0] is the empty filter's row

    def fill(l: int, pos: int) -> None:
        S, prev = square[l], K[l - 1]
        low, high = lo[l], bisect_right(K, S, 0, l) - 1
        if prev > low:
            low = prev
        if hi[l] < high:
            high = hi[l]
        if S and 2 * k <= m:
            bound = D[bisect_left(K, S, 0, l) - 1]
            if bound > low:
                low = bound
        ranks = rank[l]
        base = pos - ranks[prev]
        if l == n:
            for a in range(low, high + 1):
                keys.append(head | base + ranks[a] << shift)
            return
        for a in range(low, high + 1):
            K[l] = a
            D[l] = l if a < l - 1 else D[l - 1]
            fill(l + 1, base + ranks[a])

    for top in range(len(heights)):
        keys = [top << (m - 1) * width]  # level k's prefixes, the keys of (V_m, ..., V_{k+1})
        for k in range(m - 1, 0, -1):
            prefixes, keys, shift = keys, chains if k == 1 else [], (k - 1) * width
            for head in prefixes:
                lo, hi = list(heights[head >> k * width & field]), list(full)
                for j in range(k + 1, m + 1):
                    f = head >> (j - 1) * width & field
                    J, inv = heights[f], below[f]
                    T = heights[head >> (min(k + j, m) - 1) * width & field]
                    for l in columns:
                        if T[l] < hi[J[l]]:
                            hi[J[l]] = T[l]
                        if inv[T[l]] < hi[l]:
                            hi[l] = inv[T[l]]
                    if k + j > m:
                        continue
                    for x in range(first, n + 1):
                        last = inv[x - 1]
                        if last > x:
                            bound = x - 1 if T[last] > x - 1 else T[last]
                            if bound > lo[x]:
                                lo[x] = bound
                    J_short = short[f]
                    for l in columns:
                        if T[l]:
                            y = inv[T[l] - 1]
                            bound = J_short[l - 1 if y > l - 1 else y]
                            if bound > lo[l]:
                                lo[l] = bound
                for l in range(n - 1, t, -1):
                    if hi[l + 1] < hi[l]:
                        hi[l] = hi[l + 1]
                if any(map(gt, lo, hi)):
                    continue
                square = heights[head >> (min(2 * k, m) - 1) * width & field]  # V_{min(2k, m)}
                if t < n:
                    fill(t + 1, 0)
                else:
                    keys.append(head)
                if len(chains) > max_objects:
                    check_cap(len(chains), max_objects, held)
    return chains


def _raw_chains(p: Params, variant: str, max_objects: int) -> List[int]:
    """The generator's chain keys, ascending, behind the variant check and the size guards.

    Every entry point that enumerates chains comes through here.  The closed
    count refuses early; it is the conjectured count, which the adapted
    variant exceeds, so the generator also stops once it holds more chains
    than the cap.
    """
    if variant not in VARIANTS:
        raise ParameterError(f"variant must be one of {VARIANTS}, got {variant!r}")
    predicted = closedform.total_count(p)
    check_cap(predicted, max_objects, f"predicted about {predicted} chains for {p}")
    return _generate_chains(p.m, p.n, p.t, variant, max_objects)


def _chain_masks(m: int, n: int, key: int) -> Tuple[int, ...]:
    """The component masks (V_m, ..., V_1) of a chain key, the filter table's own ints."""
    filters = _tfilter_masks(n, 1)
    width = len(filters).bit_length()
    return tuple([filters[key >> k * width & (1 << width) - 1] for k in range(m - 1, -1, -1)])


def _last_ts(n: int) -> Tuple[List[int], int]:
    """(last, ones): last[f] is the largest t whose t-filters hold the 1-filter at position f.

    They are the first 1-filters (prefix lemma); `ones` masks a key's V_1.
    """
    last: List[int] = []
    for t in range(n, 0, -1):
        last += [t] * (len(_tfilter_masks(n, t)) - len(last))
    return last, (1 << len(last).bit_length()) - 1


def _passes(m: int, n: int, ts: Sequence[int], variant: str, max_objects: int) -> Iterator[tuple]:
    """(served, family): the chain families behind the t values ts, each with the ts it serves.

    Paper variant: one family, at t0 = min(ts), serves every t.  Lemma:
    the t-chains are the t0-chains whose V_1 is a t-filter, i.e. those
    with t <= last[V_1] (_last_ts), in the order the t0 generator gives them.
    Proof: with Amb every pair, no condition on a chain reads t (see
    _generate_chains); a t-filter is a t0-filter with no pair in a column
    <= t (_tfilter_masks), every component lies inside V_1, and both
    generators give ascending keys.  The adapted ambient set, the pairs
    with l > t, changes with t, and the lemma fails (31 chains at (2, 4,
    2) against 25 from t0 = 1): one family per t, serving that t alone.
    Every t-chain of either variant has its V_1 a t-filter, so a reader
    that tallies a family's chains at each served t <= last[V_1] is right
    for both.  Families come one at a time, in t order, so size refusals
    come in per-t order.
    """
    if variant == "paper":
        yield tuple(ts), _raw_chains(Params(m, n, min(ts)), variant, max_objects)
        return
    for t in ts:
        yield (t,), _raw_chains(Params(m, n, t), variant, max_objects)


def chain_counts(
    m: int, n: int, ts: Sequence[int], variant: str = "paper", max_objects: int = DEFAULT_MAX_OBJECTS
) -> Iterator[Tuple[int, int]]:
    """(t, number of t-chains) for each t of ts, ascending, off one family per `_passes` pass."""
    for served, family in _passes(m, n, ts, variant, max_objects):
        by_last, (last, ones) = [0] * (n + 1), _last_ts(n)
        for key in family:
            by_last[last[key & ones]] += 1
        for t in served:
            yield t, sum(by_last[t:])


def chain_tallies(
    m: int, n: int, ts: Sequence[int], variant: str = "paper", max_objects: int = DEFAULT_MAX_OBJECTS
) -> Iterator[tuple]:
    """(t, chains, covers, violations, floor coefficients) per t of ts, ascending.

    Runs _certify_covers once per `_passes` family and tallies each chain
    b at every served t <= last[V_1 of b] (_last_ts).  Those t-chains are
    an order ideal of the family (a chain inside b has its V_1 inside
    b's), so b's covers, violations and floor FL(b) are the family's.
    FL(b), a set of pairs of V_m inside V_1, misses the staircase pairs
    (i, i+1) with i < t, so its key (|FL|, |FL cap staircase|) is the
    same at every such t.  Violations keep the family's chain order.
    """
    for served, family in _passes(m, n, ts, variant, max_objects):
        full, stair = _universe(n).full_mask, _staircase_mask(n, min(served))
        last, ones = _last_ts(n)
        counts, cover_counts = [0] * (n + 1), [0] * (n + 1)
        coeffs_by: List[Dict[Tuple[int, int], int]] = [{} for _ in range(n + 1)]
        found: List[Tuple[int, str]] = []
        for b, covers, violations in _certify_covers(m, n, family):
            tau = last[family[b] & ones]
            counts[tau] += 1
            cover_counts[tau] += len(covers)
            floor = 0
            for _, extra in covers:
                floor |= extra
            floor &= full
            key = (floor.bit_count(), (floor & stair).bit_count())
            coeffs = coeffs_by[tau]
            coeffs[key] = coeffs.get(key, 0) + 1
            if violations:
                found.extend([(tau, message) for message in violations.values()])
        for t in served:
            coeffs = {}
            for part in coeffs_by[t:]:
                for key, count in part.items():
                    coeffs[key] = coeffs.get(key, 0) + count
            messages = tuple(message for tau, message in found if tau >= t)
            yield t, sum(counts[t:]), sum(cover_counts[t:]), messages, coeffs


def _sorted_chains(p: Params, keys: Sequence[int]) -> List[int]:
    """The keys of a family of t-chains in the order `enumerate` prints them.

    By each component's set-bit tuple, V_m first: grid bit order is
    lexicographic pair order, so that orders them as sorted pair lists.
    """
    bits = {mask: tuple(_bits(mask)) for mask in _tfilter_masks(p.n, p.t)}
    return sorted(keys, key=lambda key: [bits[mask] for mask in _chain_masks(p.m, p.n, key)])


def _filter_chains(p: Params, keys: Sequence[int]) -> Tuple[FilterChain, ...]:
    """The FilterChain of each key, in their order, one TFilter per t-filter."""
    filters = dict(zip(_tfilter_masks(p.n, p.t), all_t_filters(p.n, p.t))).__getitem__
    return tuple([FilterChain(tuple(map(filters, _chain_masks(p.m, p.n, key)))) for key in keys])


def enumerate_nn(
    p: Params, variant: str = "paper", max_objects: int = DEFAULT_MAX_OBJECTS
) -> Tuple[FilterChain, ...]:
    """All geometric chains of t-filters of length m, in _sorted_chains order, one TFilter per t-filter."""
    return _filter_chains(p, _sorted_chains(p, _raw_chains(p, variant, max_objects)))


class FlooredPoset(Value):
    """Inclusion poset of filter chains with floor labels on its covers.

    `cover_floor` holds ((a, b), label) per cover a < b, sorted, the label
    being the top-component difference across it, and `floors[b]` the
    union of those labels over all elements covered by b.
    """

    _fields = ("poset", "cover_floor", "floors")

    def __init__(self, poset: "FinitePoset", cover_floor: tuple, floors: Tuple[FrozenSet[Pair], ...]):
        vars(self).update(poset=poset, cover_floor=cover_floor, floors=floors)


@lru_cache(maxsize=1)
def _filter_order(n: int) -> tuple:
    """(lower, below) over the filters of T_n, by position in _tfilter_masks(n, 1).

    lower[f] lists (k, position of f - k) per minimal pair k of f; below[f]
    has bit g iff filter g lies in f.  If f lies strictly in g, a minimal
    x of g below a pair of g - f is missing from f, so f lies in g - x,
    which comes first (so f does): below[g] is g with every below[g - x].
    """
    u = _universe(n)
    masks = _tfilter_masks(n, 1)
    pos, lower, below = dict(zip(masks, range(len(masks)))), [], []
    for f, mask in enumerate(masks):
        lower.append(tuple([(k, pos[mask ^ 1 << k]) for k in _bits(u.minimal(mask))]))
        row = 1 << f
        for _, g in lower[f]:
            row |= below[g]
        below.append(row)
    return lower, below


def _certify_covers(m: int, n: int, family: Sequence[int]) -> Iterator[tuple]:
    """(b, covers, violations) per chain b of a key family, by index: Lemma 5.4, no lemma assumed.

    The family is the generator's key list, strictly ascending by its
    order and prefix lemmas (_generate_chains, _tfilter_masks): chain b is
    family[b], and a chain inside b, with no position above b's
    (_filter_order), comes before it.  A list out of order, or a key with
    a position past the filters or components that do not nest, raises
    InvariantViolation.  Covers are those of componentwise inclusion, as
    (a, packed b & ~a), component p (V_m first) at bits p*stride;
    violations maps each cover that changes more than one pair to a message.

    b - x is a chain of filters iff x is a minimal pair of some V_i that
    V_{i+1} lacks (V_{m+1} empty).  Those b - x in the family are covers,
    and U holds their x.  a < b lies below b - x iff a lacks x, so b's
    other covers are the maximal members of the box U <= a < b.  At the
    first component V_i where such an a differs from b, a lacks a minimal
    pair x of b's V_i (one below a pair a lacks), and b's V_{i+1}, a's
    too, lies in a's V_i and lacks x; so x is removable, and not in U.  So
    the walk leaves b's prefix only at a V_i with a removal outside the
    family, into the filters inside such a b's V_i - x, and extends each
    prefix by the components that follow it in the family (nexts) inside
    b's and inside no b's V_p - x with x in U: one bitset AND per prefix.
    The chains it reaches are the box; there are none when every removal
    is a cover.
    """
    filters = _tfilter_masks(n, 1)
    lower, below = _filter_order(n)
    width = len(filters).bit_length()
    shifts = range((m - 1) * width, -1, -width)  # V_m's field first
    if any(map(ge, family, islice(family, 1, None))):
        raise InvariantViolation("the chain keys are not strictly ascending")
    nexts: List[Dict[int, int]] = []  # per p: prefix key of p components -> bits of the next one
    for shift in shifts:
        table, last = {}, -1
        for key in family:
            head = key >> shift
            if head != last:
                last, prefix = head, head >> width
                table[prefix] = table.get(prefix, 0) | 1 << (head ^ prefix << width)
        nexts.append(table)
    strides = range(0, m * _universe(n).stride, _universe(n).stride)
    for b, key in enumerate(family):
        covers, room, stack, g, prefix = [], [], [], 0, 0  # g: V_{i+1}'s position, the empty filter's first
        for p, shift in enumerate(shifts):
            head = key >> shift  # the prefix key of p + 1 components
            f = head ^ prefix << width
            if f >= len(filters) or not below[f] >> g & 1:
                raise InvariantViolation(f"chain key {key} is not a nested chain of filters")
            kept = gap = 0  # the filters inside b's V_p - x, for removals x in and out of the family
            for k, h in lower[f]:
                if not filters[g] >> k & 1:
                    probe = key ^ (f ^ h) << shift
                    a = bisect_left(family, probe, 0, b)
                    if family[a] == probe:
                        covers.append((a, 1 << (strides[p] + k)))
                        kept |= below[h]
                    else:
                        gap |= below[h]
            room.append(below[f] & ~kept)
            if gap:
                stack.append((p, prefix, gap & room[p]))
            g, prefix = f, head
        found = []  # (prefix key of m - 1 components, the filters its last may be) holding box members
        while stack:
            p, prefix, inside = stack.pop()
            if p + 1 == m:
                if nexts[p][prefix] & inside:
                    found.append((prefix, inside))
                continue
            for f in _bits(nexts[p][prefix] & inside):
                head = prefix << width | f
                if p + 2 < m:
                    stack.append((p + 1, head, room[p + 1]))
                elif nexts[-1][head] & room[-1]:  # the last component, read here
                    found.append((head, room[-1]))
        violations = {}
        if found:
            box = []
            for prefix, inside in found:
                for f in _bits(nexts[-1][prefix] & inside):
                    box.append(bisect_left(family, prefix << width | f, 0, b))
            box.sort()
            chains = {a: _chain_masks(m, n, family[a]) for a in box + [b]}
            packed = {a: sum(map(lshift, masks, strides)) for a, masks in chains.items()}
            for a in box:
                if any(x != a and not packed[a] & ~packed[x] for x in box):
                    continue
                extra = packed[b] & ~packed[a]
                covers.append((a, extra))
                violations[a] = (
                    f"cover {_chain_json(m, n, family[a])} -> {_chain_json(m, n, key)} "
                    f"changes {sum(map(ne, chains[a], chains[b]))} components by {extra.bit_count()} elements"
                )
        yield b, covers, violations


def _refuse(violations: Sequence[str]) -> None:
    if violations:
        raise InvariantViolation("cover structure violations: " + "; ".join(violations))


def nn_poset(
    p: Params, variant: str = "paper", max_objects: int = DEFAULT_MAX_OBJECTS
) -> FlooredPoset:
    """Inclusion poset on enumerate_nn(p) with floor labels on the covers.

    _certify_covers reads the generator's keys, and each chain moves to
    its _sorted_chains place.  A violation of Lemma 5.4 raises
    InvariantViolation.  Under the certified lemma every cover adds one
    pair to one component, so the poset is graded by the total pair count.
    """
    from .posetcore import FinitePoset  # here: no other chain reader builds a poset

    keys = _raw_chains(p, variant, max_objects)
    printed = _sorted_chains(p, keys)
    where = dict(zip(printed, range(len(printed))))
    u = _universe(p.n)
    labelled, floors, violations = [], [frozenset()] * len(keys), []
    for b, covers, found in _certify_covers(p.m, p.n, keys):
        floor = 0
        for a, extra in covers:
            labelled.append(((where[keys[a]], where[keys[b]]), u.pairs_of(extra & u.full_mask)))
            floor |= extra
        floors[where[keys[b]]] = u.pairs_of(floor & u.full_mask)
        violations.extend(found.values())
    _refuse(violations)
    cover_floor = tuple(sorted(labelled))
    ranks = [sum(map(int.bit_count, _chain_masks(p.m, p.n, key))) for key in printed]
    poset = FinitePoset(_filter_chains(p, printed), [pair for pair, _ in cover_floor], ranks)
    return FlooredPoset(poset, cover_floor, tuple(floors))


def h_tildes(
    m: int, n: int, ts: Sequence[int], variant: str = "paper", max_objects: int = DEFAULT_MAX_OBJECTS
) -> Iterator[Tuple[int, BivariatePolynomial]]:
    """(t, h_tilde(Params(m, n, t))) for each t of ts, ascending, off `chain_tallies`.

    A t whose chains break Lemma 5.4 raises InvariantViolation when its
    turn comes, after the t before it have been yielded.
    """
    for t, _, _, violations, coeffs in chain_tallies(m, n, ts, variant, max_objects):
        _refuse(violations)
        yield t, BivariatePolynomial(coeffs)


def h_tilde(
    p: Params, variant: str = "paper", max_objects: int = DEFAULT_MAX_OBJECTS
) -> BivariatePolynomial:
    """Floor-statistics generating polynomial over the geometric chains.

    Each chain contributes x^{|FL|} y^{|FL intersected with the staircase|},
    the staircase being the minimal pairs (t, t+1), ..., (n-1, n).

    FL(b) is the union of the top-component differences over the covers of
    b, which come from the Lemma 5.4 certificate (_certify_covers): no
    poset is built and no lemma assumed.  Under the lemma, FL(b) is the
    set of pairs of V_m whose removal gives a chain in the family; a cover
    that breaks it raises InvariantViolation.  The one-t call of `h_tildes`.
    """
    [(_, poly)] = h_tildes(p.m, p.n, (p.t,), variant, max_objects)
    return poly


def verify_conjectures(
    params_list: Sequence[Params],
    variant: str = "paper",
    max_objects: int = DEFAULT_MAX_OBJECTS,
) -> Tuple[dict, ...]:
    """Per-triple rows of the chain count and the floor polynomial against their closed forms.

    Each triple's chains are generated once and feed both checks.  Rows only
    report; no assertion is made here.
    """
    rows = []
    for p in params_list:
        [(_, enumerated, _, violations, coeffs)] = chain_tallies(
            p.m, p.n, (p.t,), variant, max_objects
        )
        _refuse(violations)
        expected = closedform.total_count(p)
        h_ok = BivariatePolynomial(coeffs) == h_triangle_closed(p)
        rows.append(
            {
                "m": p.m,
                "n": p.n,
                "t": p.t,
                "variant": variant,
                "count_enumerated": enumerated,
                "count_formula": expected,
                "count_ok": enumerated == expected,
                "h_ok": h_ok,
                "pass": enumerated == expected and h_ok,
            }
        )
    return tuple(rows)
