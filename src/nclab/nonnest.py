"""Triangular pair poset, nested filter chains, and floor statistics.

The ground poset T_n consists of the pairs (i, j) with 1 <= i < j <= n,
ordered by (i, j) <= (k, l) iff i >= k and j <= l (interval containment).
T_{n,t} keeps the pairs with j > t; its up-closed subsets ("t-filters") are
in bijection with monotone integer vectors, which is how they are enumerated
here.  Filters and chains are exposed as immutable value objects; internally
everything runs on grid bitmasks, pair (i, j) at bit i*(n+1) + j.  On that
layout the setwise formal sum is a boolean matrix product done in n integer
multiplies, so the closure conditions on chains are cheap integer algebra.
"""

import json
from functools import lru_cache, reduce
from operator import and_, or_
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from . import closedform
from .errors import DomainError, InvariantViolation, ParameterError
from .ncpart import DEFAULT_MAX_OBJECTS, check_cap
from .params import Params, Value
from .polyalg import BivariatePolynomial, h_triangle_closed
from .posetcore import FinitePoset, _bits, _columns

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
        self._col = sum(1 << (i * self.width) for i in range(1, n))
        self._row = (1 << self.width) - 1

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

    @lru_cache(maxsize=1 << 14)
    def sum_masks(self, first: int, second: int) -> int:
        """Every defined formal sum (i, j) + (j, l) = (i, l) of a pair in each mask.

        Per middle index j: column j of `first`, at bits i*(n+1), times row j
        of `second`, at bits l < n+1, sets each bit i*(n+1) + l exactly once,
        so nothing carries.  The closure checks repeat a few sums (squares,
        mostly) very often, hence the bounded memo.
        """
        out = 0
        for j in range(2, self.n):
            column = (first >> j) & self._col
            if column:
                out |= column * ((second >> (j * self.width)) & self._row)
        return out


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
    # (1, j), ..., (a_j, j).  The list is lexicographic in that vector.
    tops = [sum(1 << (i * (n + 1)) for i in range(1, a + 1)) for a in range(n)]
    vectors = [(0, 0)]  # (last entry, mask) of each prefix
    for j in range(t + 1, n + 1):
        vectors = [(a, mask | tops[a] << j) for last, mask in vectors for a in range(last, j)]
    return tuple(mask for _, mask in vectors)


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

    @property
    def n(self) -> int:
        return self.filters[0].n

    def masks(self) -> Tuple[int, ...]:
        return tuple(f.mask for f in self.filters)

    def sort_key(self):
        return tuple(f.sorted_pairs() for f in self.filters)

    def to_json_dict(self) -> dict:
        return _chain_dict(self.n, self.masks())

    def to_json(self) -> str:
        return _chain_json(self.n, self.masks())


def _chain_dict(n: int, masks: Sequence[int]) -> dict:
    # Grid bit order is lexicographic pair order, so each list comes sorted.
    filters = [[list(divmod(k, n + 1)) for k in _bits(mask)] for mask in masks]
    return {"m": len(masks), "filters": filters}


def _chain_json(n: int, masks: Sequence[int]) -> str:
    return json.dumps(_chain_dict(n, masks), separators=(",", ":"))


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ParameterError(f"variant must be one of {VARIANTS}, got {variant!r}")


def _conditions_ok(u: _Universe, comp: List[int], ambient: int, m: int, k: int) -> bool:
    """Every closure condition whose smallest index is k, in both orders.

    `comp[i]` is the mask of V_i for k <= i <= m.  Sum closure
    V_i + V_j <= V_{i+j} is checked with indices above m clamped to m;
    complement closure, with complements taken in `ambient`, for i + j <= m.
    The conditions with smallest index k need only V_k, ..., V_m, so a
    generator adding V_m first can prune after each component.
    """
    for j in range(k, m + 1):
        target = comp[k + j] if k + j <= m else comp[m]
        for a, b in ((k, j),) if j == k else ((k, j), (j, k)):
            if u.sum_masks(comp[a], comp[b]) & ~target:
                return False
            # Sums of pairs in `ambient` stay in it, so this is inclusion in
            # ambient - V_{i+j}.
            if k + j <= m and u.sum_masks(ambient & ~comp[a], ambient & ~comp[b]) & target:
                return False
    return True


def _generate_chains(m: int, n: int, t: int, variant: str) -> Tuple[Tuple[int, ...], ...]:
    u = _universe(n)
    filters = _tfilter_masks(n, t)
    ambient = u.full_mask if variant == "paper" else _restricted_mask(n, t)
    chains: List[Tuple[int, ...]] = []
    comp = [0] * (m + 2)  # comp[m + 1] = 0 lies below every V_m

    @lru_cache(maxsize=None)
    def supersets(mask: int) -> Tuple[int, ...]:
        return tuple(f for f in filters if not mask & ~f)

    def descend(k: int):
        if k == 0:
            chains.append(tuple(comp[m:0:-1]))
            return
        for mask in supersets(comp[k + 1]):
            comp[k] = mask
            if _conditions_ok(u, comp, ambient, m, k):
                descend(k - 1)

    descend(m)
    return tuple(chains)


def _raw_chains(p: Params, variant: str, max_objects: int) -> Tuple[Tuple[int, ...], ...]:
    """The generator's chain masks, behind the variant check and the size guard.

    Every entry point that enumerates chains comes through here.
    """
    _check_variant(variant)
    predicted = closedform.total_count(p)
    check_cap(predicted, max_objects, f"about {predicted} chains for {p}")
    return _generate_chains(p.m, p.n, p.t, variant)


def enumerate_nn(
    p: Params, variant: str = "paper", max_objects: int = DEFAULT_MAX_OBJECTS
) -> Tuple[FilterChain, ...]:
    """All geometric chains of t-filters of length m, canonically ordered."""
    chains = [
        FilterChain(tuple(_filter_from_mask(p.n, p.t, mask) for mask in masks))
        for masks in _raw_chains(p, variant, max_objects)
    ]
    chains.sort(key=FilterChain.sort_key)
    return tuple(chains)


class FlooredPoset(Value):
    """Inclusion poset of filter chains with floor labels on its covers.

    `cover_floor[(a, b)]` is the top-component difference across the cover
    a < b, and `floors[b]` the union of those labels over all elements
    covered by b.
    """

    _fields = ("poset", "cover_floor", "floors")

    def __init__(self, poset: FinitePoset, cover_floor: tuple, floors: Tuple[FrozenSet[Pair], ...]):
        vars(self).update(poset=poset, cover_floor=cover_floor, floors=floors)

    def cover_floor_map(self) -> Dict[Tuple[int, int], FrozenSet[Pair]]:
        return dict(self.cover_floor)


def _certify(n: int, family: Sequence[Tuple[int, ...]]) -> Iterator[tuple]:
    """Exact inclusion down-sets of a chain family and the Lemma 5.4 check.

    Chains (component masks, V_m first) are packed into one int each,
    component p at bits p*stride.  down(b) is the AND over p of the chains
    whose component p lies inside b's, read off has[k], the chains holding
    packed bit k: no lemma is assumed.  A chain below b lies below the
    single removal b - k, where that is in the family, iff it lacks bit k.
    So Lemma 5.4 (every cover changes one component by one element) holds
    at b iff no chain strictly below b holds every such k, and the maximal
    chains of that residue are b's other covers.  Yields, per b: b, the
    covers as (a, packed b & ~a), and {a: message} for the covers that
    break the lemma.
    """
    u = _universe(n)
    packed = [sum(mask << (p * u.stride) for p, mask in enumerate(masks)) for masks in family]
    index = {pc: c for c, pc in enumerate(packed)}
    everything = (1 << len(packed)) - 1
    has = _columns(packed)

    @lru_cache(maxsize=None)
    def inside(p: int, mask: int) -> int:  # the chains whose component p lies in mask
        lacking = (u.full_mask & ~mask) << (p * u.stride)
        return everything & ~reduce(or_, (hs for bit, hs in has.items() if bit & lacking), 0)

    for b, pb in enumerate(packed):
        down = reduce(and_, (inside(p, mask) for p, mask in enumerate(family[b])))
        covers, common = [], down & ~(1 << b)
        for k in _bits(pb):
            c = index.get(pb ^ 1 << k)
            if c is not None:
                covers.append((c, 1 << k))
                common &= has[1 << k]
        residue = list(_bits(common))
        violations = {}
        for a in residue:
            if any(x != a and not packed[a] & ~packed[x] for x in residue):
                continue
            extra = pb & ~packed[a]
            covers.append((a, extra))
            changed = sum(1 for x, y in zip(family[a], family[b]) if x != y)
            violations[a] = (
                f"cover {_chain_json(n, family[a])} -> {_chain_json(n, family[b])} "
                f"changes {changed} components by {extra.bit_count()} elements"
            )
        yield b, covers, violations


def _refuse(violations: Sequence[str]) -> None:
    if violations:
        raise InvariantViolation("cover structure violations: " + "; ".join(violations))


def nn_poset(
    p: Params, variant: str = "paper", max_objects: int = DEFAULT_MAX_OBJECTS
) -> FlooredPoset:
    """Inclusion poset on enumerate_nn(p) with floor labels on the covers.

    The covers come from the certificate (_certify); a violation of Lemma
    5.4 raises InvariantViolation.  Under the certified lemma every cover
    adds one pair to one component, so the poset is graded by the total
    pair count over the components.
    """
    chains = enumerate_nn(p, variant=variant, max_objects=max_objects)
    family = [chain.masks() for chain in chains]
    u = _universe(p.n)
    labelled, floors, violations = [], [], []
    for b, covers, found in _certify(p.n, family):
        floors.append(u.pairs_of(reduce(or_, (e for _, e in covers), 0) & u.full_mask))
        labelled.extend(((a, b), u.pairs_of(extra & u.full_mask)) for a, extra in covers)
        violations.extend(found.values())
    _refuse(violations)
    cover_floor = tuple(sorted(labelled))
    ranks = [sum(mask.bit_count() for mask in masks) for masks in family]
    poset = FinitePoset(chains, [pair for pair, _ in cover_floor], ranks)
    return FlooredPoset(poset, cover_floor, tuple(floors))


def certify_lemma54(
    p: Params, variant: str = "paper", max_objects: int = DEFAULT_MAX_OBJECTS
) -> Tuple[int, Tuple[str, ...]]:
    """Cover count of the inclusion poset on the chains, and its Lemma 5.4 violations.

    Runs the certificate (_certify) on the raw masks; builds no poset and no FilterChain.
    """
    count = 0
    violations: List[str] = []
    for _, covers, found in _certify(p.n, _raw_chains(p, variant, max_objects)):
        count += len(covers)
        violations.extend(found.values())
    return count, tuple(violations)


def h_tilde(
    p: Params, variant: str = "paper", max_objects: int = DEFAULT_MAX_OBJECTS
) -> BivariatePolynomial:
    """Floor-statistics generating polynomial over the geometric chains.

    Each chain contributes x^{|FL|} y^{|FL intersected with the staircase|},
    the staircase being the minimal pairs (t, t+1), ..., (n-1, n).

    FL(b) is the union of the top-component differences over the covers of
    b.  The covers come from the Lemma 5.4 certificate (_certify), which
    computes exact down-sets without the lemma and builds no poset.  When
    the lemma holds they are the single-element removals that stay in the
    family, so FL(b) is the set of pairs of V_m whose removal gives a chain
    in the family.  A cover that breaks the lemma raises
    InvariantViolation, so no result rests on the lemma unchecked.
    """
    return _floor_polynomial(p, _raw_chains(p, variant, max_objects))


def _floor_polynomial(p: Params, family: Sequence[Tuple[int, ...]]) -> BivariatePolynomial:
    """h_tilde's polynomial over an already generated chain family."""
    full = _universe(p.n).full_mask
    stair = _staircase_mask(p.n, p.t)
    coeffs: Dict[Tuple[int, int], int] = {}
    violations: List[str] = []
    for _, covers, found in _certify(p.n, family):
        violations.extend(found.values())
        floor = reduce(or_, (extra for _, extra in covers), 0) & full
        key = (floor.bit_count(), (floor & stair).bit_count())
        coeffs[key] = coeffs.get(key, 0) + 1
    _refuse(violations)
    return BivariatePolynomial(coeffs)


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
        family = _raw_chains(p, variant, max_objects)
        enumerated, expected = len(family), closedform.total_count(p)
        h_ok = _floor_polynomial(p, family) == h_triangle_closed(p)
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
