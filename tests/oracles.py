"""Independent brute-force reference implementations.

Nothing here imports the package under test at module level: partitions are
plain tuples of tuples, every predicate is coded directly from the defining
patterns and the closed triangles are summed in `Fraction`, so these
routines can serve as oracles for the library.  Seven exceptions import it
when called.  `identities_literal` runs the library's literal polynomial
path (`substitute`, `RationalExpr`) over the library's identity table, the
path that the integer check in `verify_transformation_identities` replaced.
`bijection_literal` runs the bijection check on `TFilter` and `DyckPath`
objects, the path that the mask-level `dyckmodel.bijection_verdicts`
replaced.
`chains_by_closure` is the filter-chain generator that the column-height
generator `nonnest._generate_chains` replaced: it reads the library's filter
masks and tests every closure condition on whole grid masks.
`certify_by_down_sets` is the Lemma 5.4 certificate that
`nonnest._certify_covers` replaced: it reads the library's pair layout and
packs each chain's exact down-set into one bit per chain of the family.
`nc_blocks_by_filter` is the partition stream that `ncpart._nc_blocks`
replaced: it builds every classical shape from gap tables that it all keeps
and drops those that put two of 1..t in one block.  Its first blocks come
from `first_block_position_sets_recursive`, the recursive walk that the
explicit-stack `ncpart._first_block_position_sets` replaced.  `_check_shape` is the point-by-point output check
that the per-block verdicts of `_nc_blocks` replaced; it raises the
library's InvariantViolation.
`verify_ideal_embedding` reads the library's refinement poset and
relabelling map.  `m_triangle_rankwise` takes a poset object and uses only
its ranks and down-masks.
"""

import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, product
from math import comb


def all_set_partitions(n):
    """Every set partition of {1..n}, via restricted-growth assignment."""
    if n == 0:
        return [()]
    out = []

    def rec(x, blocks):
        if x > n:
            out.append(canonical(blocks))
            return
        for block in blocks:
            block.append(x)
            rec(x + 1, blocks)
            block.pop()
        blocks.append([x])
        rec(x + 1, blocks)
        blocks.pop()

    rec(1, [])
    return out


def canonical(blocks):
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def ground_size(blocks):
    return sum(len(b) for b in blocks)


def block_map(blocks):
    out = {}
    for k, block in enumerate(blocks):
        for x in block:
            out[x] = k
    return out


def is_mdivisible(blocks, m):
    return all(len(b) % m == 0 for b in blocks)


def is_t_partition(blocks, t):
    return all(sum(1 for x in b if x <= t) <= 1 for b in blocks)


def is_noncrossing_classical(blocks):
    """No i < j < k < l with i, k together and j, l together elsewhere."""
    who = block_map(blocks)
    n = ground_size(blocks)
    for i, j, k, l in combinations(range(1, n + 1), 4):
        if who[i] == who[k] and who[j] == who[l] and who[i] != who[j]:
            return False
    return True


def is_noncrossing_t(blocks, t):
    """Literal transcription of the order-t forbidden quadruple patterns."""
    who = block_map(blocks)
    n = ground_size(blocks)
    for i, j, k, l in combinations(range(1, n + 1), 4):
        if j <= t:
            if who[i] == who[l] and who[j] == who[k] and who[i] != who[j]:
                return False
        else:
            if who[i] == who[k] and who[j] == who[l] and who[i] != who[j]:
                return False
    return True


def brute_nc(m, n, t):
    """All m-divisible non-crossing t-partitions of {1..mn}, by filtering."""
    found = []
    for blocks in all_set_partitions(m * n):
        if not is_mdivisible(blocks, m):
            continue
        if not is_t_partition(blocks, t):
            continue
        if not is_noncrossing_t(blocks, t):
            continue
        found.append(blocks)
    return sorted(found)


def first_block_position_sets_recursive(size, m):
    """The recursive walk that ncpart._first_block_position_sets replaced, in its order.

    Position sets (starting at 0) of the block of the minimum in an
    m-divisible non-crossing partition of `size` points; it recurses once per
    block member, so a block of about a thousand points overflows the stack.
    """
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


def _classical_shapes(m, size, start, tables):
    # The classical shape generator that ncpart._classical_shapes replaced:
    # every m-divisible classically non-crossing partition of the points
    # start..start+size-1, as its blocks sorted by minimum, composed from gap
    # tables that are all kept in `tables`, keyed by (size, start).
    if size == 0:
        yield ()
        return
    for offsets in first_block_position_sets_recursive(size, m):
        members = tuple(start + q for q in offsets)
        gaps = []
        for low, high in zip(members, members[1:] + (start + size,)):
            key = (high - low - 1, low + 1)
            if key not in tables:
                tables[key] = tuple(_classical_shapes(m, *key, tables))
            gaps.append(tables[key])
        for combo in product(*gaps):
            yield sum(combo, (members,))


def nc_blocks_by_filter(m, n, t):
    """The outputs of the compose-then-filter generator that ncpart._nc_blocks replaced, in its order.

    Every classical shape is built; those whose first t minima are not 1..t
    are dropped, the rest relabelled by tilde_transform and checked by
    _check_shape.
    """
    size = m * n
    for blocks in _classical_shapes(m, size, 1, {}):
        if t > 1:
            if len(blocks) < t or blocks[t - 1][0] != t:
                continue
            blocks = tuple((t - i,) + blocks[i][1:] for i in reversed(range(t))) + blocks[t:]
        _check_shape(blocks, size)
        yield blocks


def _check_shape(blocks: tuple, size: int) -> None:
    # Exact O(size) proof that a generator output is canonical over
    # {1..size}: blocks non-empty and ascending, minima ascending, and each
    # of 1..size present exactly once.
    from nclab.errors import InvariantViolation

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


def refines(fine, coarse):
    who = block_map(coarse)
    return all(len({who[x] for x in block}) == 1 for block in fine)


def setwise_sum(first, second):
    """Every defined formal sum a + b, a in first, b in second: (i, j) + (j, l) = (i, l)."""
    return frozenset((a[0], b[1]) for a in first for b in second if a[1] == b[0])


def refinement_down_masks(parts):
    """Down-set bitmask of each partition under refinement, comparing every pair.

    `parts` is a list of partitions as tuples of blocks; bit i of entry j is
    set iff parts[i] refines parts[j], i.e. iff every block of parts[i] meets
    exactly one block of parts[j].
    """
    ids = []
    for blocks in parts:
        who = block_map(blocks)
        ids.append(tuple(who[x] for x in sorted(who)))
    sizes = [len(blocks) for blocks in parts]
    down = []
    for coarse, coarse_size in zip(ids, sizes):
        mask = 0
        for i, fine in enumerate(ids):
            # A refinement has at least as many blocks; skip the rest cheaply.
            if sizes[i] >= coarse_size and len(set(zip(fine, coarse))) == sizes[i]:
                mask |= 1 << i
        down.append(mask)
    return down


def covers_of(down):
    """Sorted pairs (a, b): a strictly below b and strictly below no c < b."""
    out = []
    for b, mask in enumerate(down):
        strictly_below = mask & ~(1 << b)
        below_some_c = 0
        for c in set_bits(strictly_below):
            below_some_c |= down[c] & ~(1 << c)
        for a in set_bits(strictly_below & ~below_some_c):
            out.append((a, b))
    return sorted(out)


def covers_by_merge(parts):
    """Sorted covers (i, j) found by merging two blocks of parts[i] into parts[j].

    `parts` is a list of canonical partitions (blocks sorted by minimum);
    the merged partition is rebuilt as tuples and looked up by its blocks.
    Merging blocks a < b keeps the canonical order: the merged block starts
    at blocks[a][0] and stays in place.
    """
    index = {blocks: i for i, blocks in enumerate(parts)}
    out = []
    for i, blocks in enumerate(parts):
        for a in range(len(blocks)):
            for b in range(a + 1, len(blocks)):
                merged = tuple(sorted(blocks[a] + blocks[b]))
                j = index.get(blocks[:a] + (merged,) + blocks[a + 1 : b] + blocks[b + 1 :])
                if j is not None:
                    out.append((i, j))
    return sorted(out)


def set_bits(mask):
    """Positions of the set bits of a non-negative int, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def validate_partial_order(down):
    """Assert reflexivity, antisymmetry and transitivity of down-masks.

    down[i] is the mask of the j <= i.  Raises AssertionError naming the
    first law that fails.
    """
    for i, mask in enumerate(down):
        if not mask >> i & 1:
            raise AssertionError("order is not reflexive")
        for j in set_bits(mask & ~(1 << i)):
            if down[j] >> i & 1:
                raise AssertionError("order is not antisymmetric")
            if down[j] & ~mask:
                raise AssertionError("order is not transitive")


def moebius_row(down, a):
    """{b: mu(a, b)} for every b >= a, by the recursion over the interval [a, b)."""
    # The up-set of a: every b whose down-mask holds a.
    up_a = sum(1 << b for b, mask in enumerate(down) if mask >> a & 1)
    row = {a: 1}
    # Down-set size orders the up-set by a linear extension.
    above = sorted(set_bits(up_a & ~(1 << a)), key=lambda b: down[b].bit_count())
    for b in above:
        interval = up_a & down[b] & ~(1 << b)
        row[b] = -sum(row[c] for c in set_bits(interval))
    return row


def m_triangle_rankwise(ranks, down):
    """Terms {(r, s): value} of the M-triangle of a graded poset, one solve per rank, zeros dropped.

    Element i has rank ranks[i] and down-mask down[i].  v_r[b] = [rk b = r]
    - sum over a < b of v_r[a] is solved for each rank r over the levels
    r..top (elements of rank >= r above no rank-r element get v_r = 0 and
    change no sum), and (r, s) sums v_r over level s.
    """
    top = max(ranks)
    levels = [sum(1 << i for i, rk in enumerate(ranks) if rk == s) for s in range(top + 1)]
    terms = {}
    for r in range(top + 1):
        support = sum(levels[r:])  # the levels are disjoint, so this is their OR
        v = {}
        for s in range(r, top + 1):
            total = 0
            for b in set_bits(support & levels[s]):
                below = down[b] & support & ~(1 << b)
                v[b] = (s == r) - sum(v[a] for a in set_bits(below))
                total += v[b]
            if total:
                terms[(r, s)] = total
    return terms


def cover_first_poset(p):
    """The refinement poset closed from its covers: FinitePoset over merge covers.

    Elements are enumerate_nc(p) ordered by rank, then blocks, as in
    build_refinement_poset; the covers are the single block merges that stay
    in the family (covers_by_merge), and FinitePoset ORs the down-masks
    along them.  This order rests on the family being graded, which
    FinitePoset.assert_graded checks.
    """
    from nclab.ncpart import enumerate_nc
    from nclab.posetcore import FinitePoset

    parts = sorted(enumerate_nc(p), key=lambda sp: p.n - len(sp.blocks))
    blocks = [sp.blocks for sp in parts]
    return FinitePoset(parts, covers_by_merge(blocks), [p.n - len(b) for b in blocks])


def down_masks(poset):
    """Down-set bitmask of every element of a poset read off poset.down(b)."""
    return [sum(1 << a for a in poset.down(b)) for b in range(len(poset))]


def zeta_by_down(poset, l):
    """Multichains x_1 <= ... <= x_{l-1} in a poset, by a DP over poset.down; 1 for l = 1."""
    if l == 1:
        return 1
    ways = [1] * len(poset)
    for _ in range(l - 2):
        ways = [sum(ways[a] for a in poset.down(b)) for b in range(len(poset))]
    return sum(ways)


def verify_ideal_embedding(p, classical, down):
    """True iff the relabelled order-t family sits as a down-set in the classical one.

    `classical` lists the family of Params(p.m, p.n, 1) as block tuples and
    down[i] is the down-mask of classical[i] under refinement.
    """
    from nclab.ncpart import enumerate_nc, tilde_transform

    index = {part: i for i, part in enumerate(classical)}
    image = 0
    for part in enumerate_nc(p):
        moved = tilde_transform(part, p.t).blocks
        if moved not in index:
            return False
        image |= 1 << index[moved]
    return all(not down[i] & ~image for i in set_bits(image))


def floored_poset(chains):
    """Inclusion poset of filter chains with floor labels, comparing every pair.

    `chains` lists chains as tuples (V_m, ..., V_1) of pair sets, in any
    order.  Returns (elements, down, covers, cover_floor, floors,
    violations): the chains sorted by their sorted pairs; down[j], the mask
    of the i with chain i inside chain j component by component; the
    covers as in covers_of; each cover with its V_m difference; floors[b],
    the union of those over the covers of b; and a message for each cover
    that changes more than one component or more than one pair.
    """
    elements = sorted(
        (tuple(frozenset(V) for V in chain) for chain in chains),
        key=lambda chain: tuple(tuple(sorted(V)) for V in chain),
    )
    # (position, pair) sets: one subset test per comparison.
    flat = [frozenset((p, pair) for p, V in enumerate(chain) for pair in V) for chain in elements]
    indices = range(len(flat))
    down = [sum(1 << i for i in compress(indices, map(b.__ge__, flat))) for b in flat]
    covers = covers_of(down)
    cover_floor = tuple(((a, b), elements[b][0] - elements[a][0]) for a, b in covers)
    floors = [frozenset()] * len(elements)
    violations = []
    for (a, b), label in cover_floor:
        floors[b] = floors[b] | label
        grown = [len(y - x) for x, y in zip(elements[a], elements[b])]
        changed = sum(1 for g in grown if g)
        if changed != 1 or sum(grown) != 1:
            violations.append(
                f"cover {chain_json(elements[a])} -> {chain_json(elements[b])} "
                f"changes {changed} components by {sum(grown)} elements"
            )
    return elements, down, covers, cover_floor, tuple(floors), tuple(violations)


def chain_json(chain):
    """Compact JSON of a chain of pair sets: m and each component's sorted pairs."""
    filters = [[list(pair) for pair in sorted(V)] for V in chain]
    return json.dumps({"m": len(chain), "filters": filters}, separators=(",", ":"))


def is_geometric_chain(components, n, t, variant):
    """Closure conditions on a nested chain (V_m, ..., V_1) of pair sets, set by set.

    Sum closure: V_i + V_j is inside V_{i+j} for 1 <= i, j <= m, with V_k = V_m
    for k > m (indices above m give no new condition, since V_i = V_m there).
    Complement closure: (A - V_i) + (A - V_j) is inside A - V_{i+j} for
    i + j <= m, where A holds every pair (i, j) with 1 <= i < j <= n
    ("paper") or only those with j > t ("adapted").
    """
    m = len(components)
    V = {i: frozenset(components[m - i]) for i in range(1, m + 1)}
    pairs = {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    ambient = pairs if variant == "paper" else {(i, j) for i, j in pairs if j > t}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if not setwise_sum(V[i], V[j]) <= V[min(i + j, m)]:
                return False
            if i + j <= m and not setwise_sum(ambient - V[i], ambient - V[j]) <= ambient - V[i + j]:
                return False
    return True


@lru_cache(maxsize=None)
def _grid(n):
    """Row width, column-1 bits and row-0 bits of the grid layout, pair (i, j) at bit i*(n+1) + j."""
    width = n + 1
    return width, sum(1 << (i * width) for i in range(1, n)), (1 << width) - 1


@lru_cache(maxsize=1 << 14)
def sum_masks(n, first, second):
    """Every defined formal sum (i, j) + (j, l) = (i, l) of a pair in each grid mask.

    Per middle index j: column j of `first`, at bits i*(n+1), times row j
    of `second`, at bits l < n+1, sets each bit i*(n+1) + l exactly once,
    so nothing carries.  The closure checks repeat a few sums (squares,
    mostly) very often, hence the bounded memo.
    """
    width, col, row = _grid(n)
    out = 0
    for j in range(2, n):
        column = (first >> j) & col
        if column:
            out |= column * ((second >> (j * width)) & row)
    return out


def _conditions_ok(n, comp, ambient, m, k):
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
            if sum_masks(n, comp[a], comp[b]) & ~target:
                return False
            # Sums of pairs in `ambient` stay in it, so this is inclusion in
            # ambient - V_{i+j}.
            if k + j <= m and sum_masks(n, ambient & ~comp[a], ambient & ~comp[b]) & target:
                return False
    return True


def chains_by_closure(m, n, t, variant):
    """The chain masks (V_m, ..., V_1), each candidate tested on whole masks.

    V_m first, each V_k drawn from the filters containing V_{k+1} in filter
    order, and kept when _conditions_ok holds, so the chains come
    lexicographic in (V_m, ..., V_1) by filter position.
    """
    from nclab.nonnest import _restricted_mask, _tfilter_masks, _universe

    u = _universe(n)
    filters = _tfilter_masks(n, t)
    ambient = u.full_mask if variant == "paper" else _restricted_mask(n, t)
    chains = []
    comp = [0] * (m + 2)  # comp[m + 1] = 0 lies below every V_m

    @lru_cache(maxsize=None)
    def supersets(mask):
        return tuple(f for f in filters if not mask & ~f)

    def descend(k):
        if k == 0:
            chains.append(tuple(comp[m:0:-1]))
            return
        for mask in supersets(comp[k + 1]):
            comp[k] = mask
            if _conditions_ok(n, comp, ambient, m, k):
                descend(k - 1)

    descend(m)
    return tuple(chains)


def _columns(n, family):
    """has[1 << k]: the chains whose packed mask holds bit k, for each bit some chain holds.

    Component p of a chain sits at bits p*stride of its packed mask.  Per
    component, each distinct value gets one row, b"1" or b"0" per pair
    bit.  The chains' rows, last chain first, are joined into one string,
    in which every len(pairs)-th byte from offset s spells the binary
    literal of pair bit s's column.
    """
    from nclab.nonnest import _bits, _universe

    u = _universe(n)
    spots = list(_bits(u.full_mask))
    has = {}
    if not family or not spots:
        return has
    for p in range(len(family[0])):
        rows = {v: bytes([48 + (v >> k & 1) for k in spots]) for v in {masks[p] for masks in family}}
        joined = b"".join([rows[masks[p]] for masks in reversed(family)])
        for s, k in enumerate(spots):
            column = int(joined[s :: len(spots)], 2)
            if column:
                has[1 << (p * u.stride + k)] = column
    return has


def certify_by_down_sets(n, family):
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

    Only a minimal pair of some component V_i that the next smaller
    component V_{i+1} lacks can be such a k.  Every chain the callers pass
    is a weakly nested tuple of filters, so b - k is one when it is in the
    family.  Removing a pair x from the filter V_i leaves an up-closed set
    iff no other member of V_i lies below x (that member's up-set holds
    x), i.e. iff x is minimal in V_i.  V_{i+1} must still lie inside
    V_i - x, so it lacks x.  The loop over k thus runs over
    minimal(V_i) & ~V_{i+1} for each i (V_{m+1} empty), not over every
    bit of b.
    """
    from functools import reduce
    from operator import or_

    from nclab.nonnest import _bits, _universe

    u = _universe(n)
    packed = [sum(mask << (p * u.stride) for p, mask in enumerate(masks)) for masks in family]
    index = {pc: c for c, pc in enumerate(packed)}
    everything = (1 << len(packed)) - 1
    has = _columns(n, family)

    @lru_cache(maxsize=None)
    def inside(p, mask):  # the chains whose component p lies in mask
        lacking = (u.full_mask & ~mask) << (p * u.stride)
        return everything & ~reduce(or_, (hs for bit, hs in has.items() if bit & lacking), 0)

    for b, (pb, masks) in enumerate(zip(packed, family)):
        down, removable, smaller = everything, 0, 0
        for p, mask in enumerate(masks):
            down &= inside(p, mask)
            removable |= (u.minimal(mask) & ~smaller) << (p * u.stride)
            smaller = mask
        covers, common = [], down ^ 1 << b  # b lies in its own down-set
        for k in _bits(removable):
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
            below, above = (chain_json([u.pairs_of(V) for V in family[c]]) for c in (a, b))
            violations[a] = (
                f"cover {below} -> {above} changes {changed} components by {extra.bit_count()} elements"
            )
        yield b, covers, violations


def dominates(heights_a, heights_b):
    """True iff path b lies weakly below path a: pointwise heights, same length."""
    return len(heights_a) == len(heights_b) and all(
        b <= a for a, b in zip(heights_a, heights_b)
    )


def m_triangle_fraction(m, n, t):
    """Terms {(r, s): value} of the closed M-triangle double sum, in Fraction, zeros dropped."""
    d = n - t
    terms = {}
    for r in range(d + 1):
        for s in range(r, d + 1):
            value = Fraction(t * (m * n - t + 1) - (n - t - s) * (t - 1), n * (m * n - t + 1))
            value *= (-1) ** (s - r) * comb(n, r) * comb(m * n - t + 1, n - t - s)
            value *= comb(m * n + s - r - 1, s - r)
            if value:
                terms[(r, s)] = value
    return terms


def f_triangle_fraction(m, n, t):
    """Terms {(a, b): value} of the closed F-triangle, in Fraction, zeros dropped."""
    d = n - t
    terms = {}
    for a in range(d + 1):
        for b in range(d - a + 1):
            value = Fraction(t + b, n) * comb(m * n + a - 1, a) * comb(n, t + a + b)
            if value:
                terms[(a, b)] = value
    return terms


def identities_literal(p):
    """(results, alt_prefactor_holds) of the six identities, by polynomial algebra.

    Each row of `polyalg._IDENTITIES` is checked as lhs * image.den ==
    base^d * image.num with image = substitute(source, u, v, d), expanding
    both sides as polynomials.  The triangles are looked up on the module at
    call time, so a monkeypatched triangle reaches this check too.
    """
    from nclab import polyalg

    d = p.max_rank
    triangles = {
        "m": polyalg.m_triangle_closed(p),
        "h": polyalg.h_triangle_closed(p),
        "f": polyalg.f_triangle_closed(p),
    }
    results = []
    alt = None
    for name, lhs, base, source, u, v, alt_base in polyalg._IDENTITIES:
        image = polyalg.substitute(triangles[source], u, v, d)
        left = triangles[lhs] * image.den
        results.append((name, left == base**d * image.num))
        if alt_base is not None:
            alt = left == alt_base**d * image.num
    return tuple(results), alt


def eval_exact(poly, x0, y0):
    """Exact value of a polynomial at the point (x0, y0) of int or Fraction coordinates.

    Any other coordinate type, float and bool included, raises TypeError.
    """
    for value in (x0, y0):
        if type(value) not in (int, Fraction):
            raise TypeError(f"points must be int or Fraction, got {value!r}")
    x0, y0 = Fraction(x0), Fraction(y0)
    total = Fraction(0)
    for (ex, ey), coeff in poly.terms().items():
        total += coeff * x0**ex * y0**ey
    return total


def _binom(r, k):
    """C(r, k) for r >= 0, and 0 for k < 0."""
    return comb(r, k) if k >= 0 else 0


def _multinomial(parts):
    total, result = 0, 1
    for part in parts:
        total += part
        result *= comb(total, part)
    return result


def multichain_count_fraction(m, n, t, s):
    """Closed multichain count with rank increments s, in Fraction."""
    value = Fraction(t * (m * n - t + 1) - s[-1] * (t - 1), n * (m * n - t + 1))
    value *= _binom(n, s[0])
    for si in s[1:-1]:
        value *= _binom(m * n, si)
    return value * _binom(m * n - t + 1, s[-1])


def count_by_profile_fraction(m, n, t, b):
    """Closed count of the partitions with b[i-1] blocks of size m*i, in Fraction."""
    blocks = sum(b)
    value = Fraction((m * n - t + 1) * blocks - m * n * (blocks - t), (m * n - t + 1) * blocks)
    return value * _binom(m * n - t + 1, blocks - t) * _multinomial(b)


def count_by_rank_fraction(m, n, t, s):
    """Closed count of the partitions of rank s, in Fraction."""
    value = Fraction(m * n * t - (n - s) * (t - 1), n * (m * n - t + 1))
    return value * _binom(m * n - t + 1, n - s - t) * _binom(n, s)


def total_count_fraction(m, n, t):
    """Closed total count (mt+1)/(mn+1) C((m+1)n - t, n - t), in Fraction."""
    return Fraction(m * t + 1, m * n + 1) * _binom((m + 1) * n - t, n - t)


def chain_count_with_profile_fraction(m, n, t, s, b):
    """Closed count of the multichains with increments s whose first element has profile b."""
    blocks = sum(b)
    if sum(i * bi for i, bi in enumerate(b, start=1)) != n or s[0] + blocks != n:
        return Fraction(0)
    value = Fraction(t * (m * n - t + 1) - s[-1] * (t - 1), (m * n - t + 1) * blocks)
    value *= _multinomial(b)
    for si in s[1:-1]:
        value *= _binom(m * n, si)
    return value * _binom(m * n - t + 1, s[-1])


def zeta_fraction(m, n, t, l):
    """Closed count of the multichains with l - 1 elements, in Fraction."""
    value = Fraction((l - 1) * m * t + 1, (l - 1) * m * n + 1)
    return value * _binom(n + (l - 1) * m * n - t, n - t)


def bijection_literal(n, t):
    """The bijection verdict at (n, t) on TFilter and DyckPath objects, with the all-pairs order check.

    The order is compared pair by pair, TFilter inclusion against ddom_leq,
    so no order code is shared with the area identity that
    `dyckmodel.bijection_verdicts` checks.
    """
    from nclab import closedform
    from nclab.dyckmodel import ddom_leq, enumerate_tdyck, theta, theta_inverse
    from nclab.nonnest import all_t_filters
    from nclab.params import Params

    filters = all_t_filters(n, t)
    paths = enumerate_tdyck(n, t)
    images = [theta(filt) for filt in filters]
    return (
        len(filters) == len(paths) == closedform.total_count(Params(1, n, t))
        and all(theta_inverse(path, t) == filt for filt, path in zip(filters, images))
        and len(set(images)) == len(filters)
        and set(images) == set(paths)
        and all(
            (fa <= fb) == ddom_leq(pa, pb)
            for fa, pa in zip(filters, images)
            for fb, pb in zip(filters, images)
        )
    )
