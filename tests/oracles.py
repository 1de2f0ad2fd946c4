"""Independent brute-force reference implementations.

Nothing here imports the package under test: partitions are plain tuples of
tuples and every predicate is coded directly from the defining patterns, so
these routines can serve as oracles for the library.
"""

from itertools import combinations


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


def refines(fine, coarse):
    who = block_map(coarse)
    return all(len({who[x] for x in block}) == 1 for block in fine)


def setwise_sum(first, second):
    """Every defined formal sum a + b, a in first, b in second: (i, j) + (j, l) = (i, l)."""
    return frozenset((a[0], b[1]) for a in first for b in second if a[1] == b[0])
