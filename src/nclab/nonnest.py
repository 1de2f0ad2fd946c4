"""Triangular pair poset, nested filter chains, and floor statistics.

The ground poset T_n consists of the pairs (i, j) with 1 <= i < j <= n,
ordered by (i, j) <= (k, l) iff i >= k and j <= l (interval containment).
T_{n,t} keeps the pairs with j > t; its up-closed subsets ("t-filters") are
in bijection with monotone integer vectors, which is how they are enumerated
here.  Filters and chains are exposed as immutable value objects; internally
everything runs on bitmasks over the at most n(n-1)/2 pairs, with the
pairwise formal-sum table precomputed, so the closure conditions on chains
are cheap set algebra.
"""

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import closedform
from .errors import (
    DomainError,
    InvariantViolation,
    ParameterError,
    ResourceLimitError,
)
from .ncpart import DEFAULT_MAX_OBJECTS
from .params import Params
from .polyalg import BivariatePolynomial, h_triangle_closed
from .posetcore import FinitePoset, _bits

Pair = Tuple[int, int]

VARIANTS = ("paper", "adapted")


def triangular_pairs(n: int) -> Tuple[Pair, ...]:
    """All pairs (i, j) with 1 <= i < j <= n, lexicographically ordered."""
    if n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
    return tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1))


def pair_leq(a: Pair, b: Pair) -> bool:
    """(i, j) below (k, l) iff the interval [i, j] sits inside [k, l]."""
    return a[0] >= b[0] and a[1] <= b[1]


def formal_sum(a: Pair, b: Pair) -> Optional[Pair]:
    """(i, j) + (k, l) = (i, l) when j = k, undefined (None) otherwise.

    The operation is applied exactly as written; it is not symmetric in its
    arguments.
    """
    if a[1] == b[0]:
        return (a[0], b[1])
    return None


class _Universe:
    """Precomputed pair indexing and sum table for one value of n."""

    __slots__ = ("n", "pairs", "index", "up_masks", "sum_table", "full_mask")

    def __init__(self, n: int):
        self.n = n
        self.pairs = triangular_pairs(n)
        self.index = {pair: k for k, pair in enumerate(self.pairs)}
        size = len(self.pairs)
        self.full_mask = (1 << size) - 1
        self.up_masks = []
        for pair in self.pairs:
            mask = 0
            for k, other in enumerate(self.pairs):
                if pair_leq(pair, other):
                    mask |= 1 << k
            self.up_masks.append(mask)
        self.sum_table = []
        for a in self.pairs:
            row = []
            for b in self.pairs:
                s = formal_sum(a, b)
                row.append(self.index[s] if s is not None else -1)
            self.sum_table.append(row)

    def mask_of(self, pairs) -> int:
        mask = 0
        for pair in pairs:
            try:
                mask |= 1 << self.index[pair]
            except KeyError:
                raise DomainError(f"{pair} is not a pair of the degree-{self.n} poset") from None
        return mask

    def pairs_of(self, mask: int) -> FrozenSet[Pair]:
        return frozenset(self.pairs[k] for k in _bits(mask))

    def sum_masks(self, first: int, second: int) -> int:
        out = 0
        for a in _bits(first):
            row = self.sum_table[a]
            for b in _bits(second):
                target = row[b]
                if target >= 0:
                    out |= 1 << target
        return out


@lru_cache(maxsize=None)
def _universe(n: int) -> _Universe:
    return _Universe(n)


@lru_cache(maxsize=None)
def _restricted_mask(n: int, t: int) -> int:
    u = _universe(n)
    mask = 0
    for k, (_, j) in enumerate(u.pairs):
        if j > t:
            mask |= 1 << k
    return mask


@lru_cache(maxsize=None)
def _staircase_mask(n: int, t: int) -> int:
    # Minimal elements of the restricted poset: (i, i+1) for t <= i <= n-1.
    u = _universe(n)
    mask = 0
    for i in range(t, n):
        mask |= 1 << u.index[(i, i + 1)]
    return mask


@lru_cache(maxsize=None)
def _tfilter_masks(n: int, t: int) -> Tuple[int, ...]:
    # Filters of the restricted poset correspond to weakly increasing vectors
    # (a_{t+1}, ..., a_n) with 0 <= a_j <= j-1: column j contains the pairs
    # (1, j), ..., (a_j, j).  Enumeration is lexicographic in that vector.
    u = _universe(n)
    columns = list(range(t + 1, n + 1))
    masks: List[int] = []

    def rec(pos: int, lower: int, acc_mask: int):
        if pos == len(columns):
            masks.append(acc_mask)
            return
        j = columns[pos]
        mask = acc_mask
        for i in range(1, lower + 1):
            mask |= 1 << u.index[(i, j)]
        a = lower
        while True:
            rec(pos + 1, a, mask)
            a += 1
            if a >= j:
                break
            mask |= 1 << u.index[(a, j)]

    rec(0, 0, 0)
    return tuple(masks)


@dataclass(frozen=True)
class TFilter:
    """Up-closed subset of the pairs (i, j) with i < j and j > t."""

    n: int
    t: int
    pairs: FrozenSet[Pair]

    def __post_init__(self):
        if not 1 <= self.t <= self.n:
            raise ParameterError(f"need 1 <= t <= n, got t={self.t}, n={self.n}")
        pairs = frozenset(tuple(pair) for pair in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        u = _universe(self.n)
        mask = u.mask_of(pairs)
        if mask & ~_restricted_mask(self.n, self.t):
            raise DomainError(f"a member has second coordinate <= t={self.t}")
        for k in _bits(mask):
            if u.up_masks[k] & ~mask:
                raise DomainError("the member set is not up-closed")

    @property
    def mask(self) -> int:
        return _universe(self.n).mask_of(self.pairs)

    def min_elements(self) -> FrozenSet[Pair]:
        """Members with no other member below them in the pair order."""
        u = _universe(self.n)
        mask = self.mask
        out = []
        for k in _bits(mask):
            i, j = u.pairs[k]
            below_i = u.index.get((i + 1, j))
            below_j = u.index.get((i, j - 1)) if j - 1 > self.t else None
            if below_i is not None and (mask >> below_i) & 1:
                continue
            if below_j is not None and (mask >> below_j) & 1:
                continue
            out.append((i, j))
        return frozenset(out)

    def sorted_pairs(self) -> Tuple[Pair, ...]:
        return tuple(sorted(self.pairs))

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


@dataclass(frozen=True)
class FilterChain:
    """Weakly nested tuple (V_m, ..., V_1) of t-filters, largest index first."""

    filters: Tuple[TFilter, ...]

    def __post_init__(self):
        if not self.filters:
            raise ParameterError("a chain needs at least one component")
        filters = tuple(self.filters)
        object.__setattr__(self, "filters", filters)
        n, t = filters[0].n, filters[0].t
        for f in filters:
            if (f.n, f.t) != (n, t):
                raise DomainError("chain components live on different pair posets")
        for smaller, larger in zip(filters, filters[1:]):
            if not smaller.pairs <= larger.pairs:
                raise DomainError("chain components must be nested V_m <= ... <= V_1")

    @property
    def m(self) -> int:
        return len(self.filters)

    @property
    def n(self) -> int:
        return self.filters[0].n

    @property
    def t(self) -> int:
        return self.filters[0].t

    def component(self, i: int) -> TFilter:
        """V_i for 1 <= i <= m (the tuple stores V_m first)."""
        if not 1 <= i <= self.m:
            raise ParameterError(f"component index must lie in [1, {self.m}], got {i}")
        return self.filters[self.m - i]

    def masks(self) -> Tuple[int, ...]:
        return tuple(f.mask for f in self.filters)

    def sort_key(self):
        return tuple(f.sorted_pairs() for f in self.filters)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "filters": [[list(pair) for pair in f.sorted_pairs()] for f in self.filters],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ParameterError(f"variant must be one of {VARIANTS}, got {variant!r}")


def _closure_ok(u: _Universe, comp: Dict[int, int], m: int, i: int, j: int) -> bool:
    # Sum-closure (ordered) for one index pair, with indices above m clamped.
    target = comp[m if i + j > m else i + j]
    return not (u.sum_masks(comp[i], comp[j]) & ~target)


def _complement_ok(
    u: _Universe, comp: Dict[int, int], ambient: int, i: int, j: int, total: int
) -> bool:
    first = ambient & ~comp[i]
    second = ambient & ~comp[j]
    target = ambient & ~comp[total]
    return not (u.sum_masks(first, second) & ~target)


def is_geometric(chain: FilterChain, variant: str = "paper") -> bool:
    """Closure test for a nested filter chain.

    The sum condition V_i + V_j <= V_{i+j} is checked for all i, j >= 1 using
    the conventions V_0 = everything and V_k = V_m for k > m; ranging i and j
    over [1, m] with the clamp covers every stated case because the sums
    stabilise beyond m.  The complement condition applies for i + j <= m,
    with complements taken in the full pair set ("paper") or in the
    restricted one ("adapted").
    """
    _check_variant(variant)
    u = _universe(chain.n)
    m = chain.m
    comp = {i: chain.component(i).mask for i in range(1, m + 1)}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if not _closure_ok(u, comp, m, i, j):
                return False
    ambient = u.full_mask if variant == "paper" else _restricted_mask(chain.n, chain.t)
    for i in range(1, m):
        for j in range(1, m - i + 1):
            if not _complement_ok(u, comp, ambient, i, j, i + j):
                return False
    return True


@lru_cache(maxsize=None)
def _enumerate_nn_cached(m: int, n: int, t: int, variant: str) -> Tuple[Tuple[int, ...], ...]:
    u = _universe(n)
    filters = _tfilter_masks(n, t)
    ambient = u.full_mask if variant == "paper" else _restricted_mask(n, t)
    chains: List[Tuple[int, ...]] = []
    comp: Dict[int, int] = {}

    def ok_after_adding(k: int) -> bool:
        # All closure conditions whose smallest index is k are decidable once
        # V_k joins the prefix (V_m, ..., V_k); higher pairs were checked before.
        for j in range(k, m + 1):
            if not _closure_ok(u, comp, m, k, j):
                return False
            if j != k and not _closure_ok(u, comp, m, j, k):
                return False
            if k + j <= m:
                if not _complement_ok(u, comp, ambient, k, j, k + j):
                    return False
                if j != k and not _complement_ok(u, comp, ambient, j, k, k + j):
                    return False
        return True

    def descend(k: int):
        if k == 0:
            chains.append(tuple(comp[i] for i in range(m, 0, -1)))
            return
        for mask in filters:
            if k < m and (comp[k + 1] & ~mask):
                continue
            comp[k] = mask
            if ok_after_adding(k):
                descend(k - 1)
            del comp[k]

    descend(m)
    return tuple(chains)


def enumerate_nn(
    p: Params, variant: str = "paper", max_objects: int = DEFAULT_MAX_OBJECTS
) -> Tuple[FilterChain, ...]:
    """All geometric chains of t-filters of length m, canonically ordered."""
    _check_variant(variant)
    predicted = closedform.total_count(p)
    if max_objects is not None and predicted > max_objects:
        raise ResourceLimitError(
            f"predicted about {predicted} chains for {p}, more than the cap {max_objects}"
        )
    raw = _enumerate_nn_cached(p.m, p.n, p.t, variant)
    chains = [
        FilterChain(tuple(_filter_from_mask(p.n, p.t, mask) for mask in masks))
        for masks in raw
    ]
    chains.sort(key=FilterChain.sort_key)
    return tuple(chains)


@dataclass(frozen=True)
class FlooredPoset:
    """Inclusion poset of filter chains with floor labels on its covers.

    `cover_floor[(a, b)]` is the top-component difference across the cover
    a < b, and `floors[b]` the union of those labels over all elements
    covered by b.  `violations` lists covers that break the single-index,
    single-element structure; strict construction refuses to return them
    silently.
    """

    poset: FinitePoset
    cover_floor: Tuple[Tuple[Tuple[int, int], FrozenSet[Pair]], ...]
    floors: Tuple[FrozenSet[Pair], ...]
    violations: Tuple[str, ...]

    def cover_floor_map(self) -> Dict[Tuple[int, int], FrozenSet[Pair]]:
        return dict(self.cover_floor)


@lru_cache(maxsize=None)
def _nn_poset_cached(m: int, n: int, t: int, variant: str) -> FlooredPoset:
    p = Params(m, n, t)
    chains = enumerate_nn(p, variant=variant, max_objects=None)
    masks = [chain.masks() for chain in chains]
    size = len(chains)
    sizes = [sum(mask.bit_count() for mask in chain_masks) for chain_masks in masks]
    down = [1 << i for i in range(size)]
    for b in range(size):
        mb = masks[b]
        for a in range(size):
            if sizes[a] >= sizes[b]:
                continue
            ma = masks[a]
            if all(x & ~y == 0 for x, y in zip(ma, mb)):
                down[b] |= 1 << a
    poset = FinitePoset(chains, down, ranks=None)
    u = _universe(n)
    cover_floor = []
    floors = [frozenset() for _ in range(size)]
    violations = []
    for a, b in poset.covers():
        ma, mb = masks[a], masks[b]
        changed = [i for i in range(m) if ma[i] != mb[i]]
        extra = [mb[i] & ~ma[i] for i in range(m)]
        if len(changed) != 1 or sum(e.bit_count() for e in extra) != 1:
            violations.append(
                f"cover {chains[a].to_json()} -> {chains[b].to_json()} "
                f"changes {len(changed)} components by {sum(e.bit_count() for e in extra)} elements"
            )
        label = u.pairs_of(mb[0] & ~ma[0])
        cover_floor.append(((a, b), label))
        floors[b] = floors[b] | label
    return FlooredPoset(poset, tuple(cover_floor), tuple(floors), tuple(violations))


def nn_poset(
    p: Params,
    variant: str = "paper",
    max_objects: int = DEFAULT_MAX_OBJECTS,
    strict: bool = True,
) -> FlooredPoset:
    """Inclusion poset on enumerate_nn(p) with floor labels on the covers.

    With strict=True a violation of the expected cover structure raises
    InvariantViolation instead of being silently recorded.
    """
    _check_variant(variant)
    enumerate_nn(p, variant=variant, max_objects=max_objects)
    result = _nn_poset_cached(p.m, p.n, p.t, variant)
    if strict and result.violations:
        raise InvariantViolation(
            "cover structure violations: " + "; ".join(result.violations)
        )
    return result


def h_tilde(
    p: Params, variant: str = "paper", max_objects: int = DEFAULT_MAX_OBJECTS
) -> BivariatePolynomial:
    """Floor-statistics generating polynomial over the geometric chains.

    Each chain contributes x^{|FL|} y^{|FL intersected with the staircase|},
    the staircase being the minimal pairs (t, t+1), ..., (n-1, n).
    """
    decorated = nn_poset(p, variant=variant, max_objects=max_objects, strict=False)
    u = _universe(p.n)
    stair = _staircase_mask(p.n, p.t)
    coeffs: Dict[Tuple[int, int], int] = {}
    for floor_set in decorated.floors:
        mask = u.mask_of(floor_set)
        key = (mask.bit_count(), (mask & stair).bit_count())
        coeffs[key] = coeffs.get(key, 0) + 1
    return BivariatePolynomial(coeffs)


def chain_counts(
    p: Params, variant: str = "paper", max_objects: int = DEFAULT_MAX_OBJECTS
) -> Tuple[int, int]:
    """|enumerate_nn(p)| and the closed total count it is conjectured to equal."""
    chains = enumerate_nn(p, variant=variant, max_objects=max_objects)
    return len(chains), closedform.total_count(p)


def floor_polynomial_matches(
    p: Params, variant: str = "paper", max_objects: int = DEFAULT_MAX_OBJECTS
) -> bool:
    """True iff the floor polynomial h_tilde(p) equals the closed H-triangle."""
    return h_tilde(p, variant=variant, max_objects=max_objects) == h_triangle_closed(p)


def verify_conjectures(
    params_list: Sequence[Params],
    variant: str = "paper",
    max_objects: int = DEFAULT_MAX_OBJECTS,
) -> Tuple[dict, ...]:
    """Per-triple rows of chain_counts and floor_polynomial_matches.

    Rows only report; no assertion is made here.
    """
    rows = []
    for p in params_list:
        enumerated, expected = chain_counts(p, variant=variant, max_objects=max_objects)
        h_ok = floor_polynomial_matches(p, variant=variant, max_objects=max_objects)
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
