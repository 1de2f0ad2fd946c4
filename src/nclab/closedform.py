"""Exact evaluation of the closed counting formulas.

Every formula is computed over exact rationals and asserted to be a
non-negative integer before it is returned, so a transcription slip in a
formula surfaces immediately instead of silently corrupting counts
downstream.  All functions are pure and safe to call concurrently.
"""

from fractions import Fraction
from math import comb
from typing import List, Sequence, Tuple

from .errors import InvariantViolation, ParameterError
from .params import Params


def binomial(r: int, k: int) -> int:
    """Generalized binomial coefficient with an arbitrary integer top.

    binomial(r, k) = r(r-1)...(r-k+1) / k! for k >= 0, and 0 for k < 0.
    For negative r this uses binomial(r, k) = (-1)^k * binomial(k-r-1, k).
    """
    if k < 0:
        return 0
    if r >= 0:
        return comb(r, k)
    return (-1) ** k * comb(k - r - 1, k)


def multinomial(parts: Sequence[int]) -> int:
    """Multinomial coefficient (sum(parts); parts), as a product of binomials."""
    total = 0
    result = 1
    for part in parts:
        if part < 0:
            raise ParameterError(f"multinomial parts must be non-negative, got {part}")
        total += part
        result *= comb(total, part)
    return result


def _as_count(value: Fraction, context: str) -> int:
    if value.denominator != 1:
        raise InvariantViolation(f"{context} evaluated to the non-integer {value}")
    if value < 0:
        raise InvariantViolation(f"{context} evaluated to the negative value {value}")
    return int(value)


def _check_increments(p: Params, l: int, s: Sequence[int]) -> None:
    if l < 1:
        raise ParameterError(f"chain length l must be at least 1, got {l}")
    if len(s) != l + 1:
        raise ParameterError(
            f"rank increment vector must have l+1 = {l + 1} entries, got {len(s)}"
        )
    if any(si < 0 for si in s):
        raise ParameterError(f"rank increments must be non-negative, got {tuple(s)}")
    if sum(s) != p.max_rank:
        raise ParameterError(
            f"rank increments must sum to n - t = {p.max_rank}, got {sum(s)}"
        )


def multichain_count_formula(p: Params, l: int, s: Sequence[int]) -> int:
    """Number of l-element multi-chains with prescribed rank increments.

    s = (s_1, ..., s_{l+1}) with sum n - t; the i-th chain element has rank
    s_1 + ... + s_i, and s_{l+1} is the residual gap to the top rank.
    """
    _check_increments(p, l, s)
    m, n, t = p.m, p.n, p.t
    value = Fraction(t * (m * n - t + 1) - s[-1] * (t - 1), n * (m * n - t + 1))
    value *= binomial(n, s[0])
    for si in s[1:-1]:
        value *= binomial(m * n, si)
    value *= binomial(m * n - t + 1, s[-1])
    return _as_count(value, "multichain count formula")


def profiles(n: int) -> List[Tuple[int, ...]]:
    """All profiles (b_1, ..., b_n) with sum i*b_i = n, lexicographically.

    These are the arguments at which count_by_profile is defined.
    """
    out: List[Tuple[int, ...]] = []

    def rec(i: int, left: int, acc: List[int]):
        if i == n:
            if left % n == 0:
                out.append(tuple(acc) + (left // n,))
            return
        for b in range(left // i + 1):
            acc.append(b)
            rec(i + 1, left - i * b, acc)
            acc.pop()

    rec(1, n, [])
    return out


def count_by_profile(p: Params, b: Sequence[int]) -> int:
    """Number of partitions with exactly b[i-1] blocks of size m*i."""
    if any(bi < 0 for bi in b):
        raise ParameterError(f"profile entries must be non-negative, got {tuple(b)}")
    if sum(i * bi for i, bi in enumerate(b, start=1)) != p.n:
        raise ParameterError(
            f"profile must satisfy sum(i * b_i) = n = {p.n}, got {tuple(b)}"
        )
    m, n, t = p.m, p.n, p.t
    total_blocks = sum(b)
    value = Fraction(
        (m * n - t + 1) * total_blocks - m * n * (total_blocks - t),
        (m * n - t + 1) * total_blocks,
    )
    value *= binomial(m * n - t + 1, total_blocks - t)
    value *= multinomial(b)
    return _as_count(value, "profile count formula")


def count_by_rank(p: Params, s: int) -> int:
    """Number of partitions of rank s in the refinement order."""
    if not 0 <= s <= p.max_rank:
        raise ParameterError(f"rank must lie in [0, {p.max_rank}], got {s}")
    m, n, t = p.m, p.n, p.t
    value = Fraction(m * n * t - (n - s) * (t - 1), n * (m * n - t + 1))
    value *= binomial(m * n - t + 1, n - s - t)
    value *= binomial(n, s)
    return _as_count(value, "rank count formula")


def total_count(p: Params) -> int:
    """Total number of m-divisible non-crossing t-partitions of {1..mn}."""
    m, n, t = p.m, p.n, p.t
    value = Fraction(m * t + 1, m * n + 1) * binomial((m + 1) * n - t, n - t)
    return _as_count(value, "total count formula")


def chain_count_with_profile(
    p: Params, l: int, s: Sequence[int], b: Sequence[int]
) -> int:
    """Rank-prescribed multi-chains whose first element has profile b.

    Returns 0 unless both side conditions hold: sum(i * b_i) = n and
    s_1 + sum(b) = n.  Both are checked literally.
    """
    _check_increments(p, l, s)
    if any(bi < 0 for bi in b):
        raise ParameterError(f"profile entries must be non-negative, got {tuple(b)}")
    m, n, t = p.m, p.n, p.t
    total_blocks = sum(b)
    if sum(i * bi for i, bi in enumerate(b, start=1)) != n:
        return 0
    if s[0] + total_blocks != n:
        return 0
    value = Fraction(
        t * (m * n - t + 1) - s[-1] * (t - 1), (m * n - t + 1) * total_blocks
    )
    value *= multinomial(b)
    for si in s[1:-1]:
        value *= binomial(m * n, si)
    value *= binomial(m * n - t + 1, s[-1])
    return _as_count(value, "profiled chain count formula")


def max_chains_formula(p: Params) -> int:
    """Closed product t * (mn)^(n-t-1) for saturated rank-1..top chains.

    Only defined for n > t (the exponent must be non-negative).  When the
    refinement poset has a unique minimal element this equals the number of
    its maximal chains.
    """
    if p.n <= p.t:
        raise ParameterError(
            f"the maximal chain product requires n > t, got n={p.n}, t={p.t}"
        )
    return p.t * (p.m * p.n) ** (p.n - p.t - 1)


def zeta_formula(p: Params, l: int) -> int:
    """Number of multi-chains with l - 1 elements (the order-counting polynomial at l)."""
    if l < 1:
        raise ParameterError(f"zeta argument l must be at least 1, got {l}")
    m, n, t = p.m, p.n, p.t
    value = Fraction((l - 1) * m * t + 1, (l - 1) * m * n + 1)
    value *= binomial(n + (l - 1) * m * n - t, n - t)
    return _as_count(value, "zeta formula")
