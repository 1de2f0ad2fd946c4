from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nclab import closedform
from nclab.closedform import (
    binomial,
    chain_count_with_profile,
    count_by_profile,
    count_by_rank,
    max_chains_formula,
    multichain_count_formula,
    multinomial,
    profiles,
    total_count,
    zeta_formula,
)
from nclab.errors import InvariantViolation, ParameterError
from nclab.ncpart import SetPartition, block_profile, enumerate_nc, rank_of
from nclab.params import Params
from nclab.posetcore import build_refinement_poset


def compositions(total, parts):
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


SMALL = [
    Params(m, n, t)
    for m, n in ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3), (3, 2), (4, 1))
    for t in range(1, n + 1)
]


class TestBinomial:
    def test_agrees_with_comb(self):
        for r in range(0, 12):
            for k in range(0, 12):
                assert binomial(r, k) == comb(r, k)

    def test_negative_k_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(-3, -2) == 0

    def test_negative_top(self):
        assert binomial(-1, 0) == 1
        assert binomial(-1, 3) == -1
        assert binomial(-2, 3) == -4

    @settings(max_examples=80, deadline=None)
    @given(st.integers(-20, 20), st.integers(0, 15))
    def test_pascal_rule(self, r, k):
        assert binomial(r, k) == binomial(r - 1, k) + binomial(r - 1, k - 1)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=5))
    def test_multinomial_factorials(self, parts):
        expected = factorial(sum(parts))
        for part in parts:
            expected //= factorial(part)
        assert multinomial(parts) == expected


class TestTotalCount:
    def test_known_value_232(self):
        assert total_count(Params(2, 3, 2)) == 5

    def test_t_equals_n(self):
        for m, n in ((1, 3), (2, 4), (3, 5)):
            assert total_count(Params(m, n, n)) == 1

    def test_derived_value(self):
        assert total_count(Params(1, 4, 2)) == 9

    def test_matches_enumeration(self):
        for p in SMALL:
            assert total_count(p) == len(enumerate_nc(p))


class TestCountByRank:
    def test_examples(self):
        assert count_by_rank(Params(1, 3, 1), 1) == 3
        assert count_by_rank(Params(1, 3, 2), 1) == 2

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            count_by_rank(Params(1, 3, 2), 2)

    def test_census(self):
        for p in SMALL:
            census = {}
            for part in enumerate_nc(p):
                census[rank_of(part, p)] = census.get(rank_of(part, p), 0) + 1
            for s in range(p.max_rank + 1):
                assert count_by_rank(p, s) == census.get(s, 0)

    def test_sums_to_total(self):
        for p in SMALL:
            assert sum(count_by_rank(p, s) for s in range(p.max_rank + 1)) == total_count(p)


class TestCountByProfile:
    def test_examples(self):
        assert count_by_profile(Params(1, 3, 1), (1, 1, 0)) == 3
        assert count_by_profile(Params(2, 3, 2), (3, 0, 0)) == 3

    def test_profiles_are_every_solution_in_order(self):
        for n in range(1, 7):
            candidates = product(*(range(n // i + 1) for i in range(1, n + 1)))
            expected = [b for b in candidates if sum(i * bi for i, bi in enumerate(b, 1)) == n]
            assert profiles(n) == expected

    def test_single_block(self):
        for m, n in ((1, 4), (2, 3)):
            single = (0,) * (n - 1) + (1,)
            assert count_by_profile(Params(m, n, 1), single) == 1
            for t in range(2, n + 1):
                assert count_by_profile(Params(m, n, t), single) == 0

    def test_profile_sum_violation(self):
        with pytest.raises(ParameterError):
            count_by_profile(Params(1, 3, 1), (1, 0, 1))

    def test_census(self):
        for p in SMALL:
            census = {}
            for part in enumerate_nc(p):
                key = block_profile(part, p).counts
                census[key] = census.get(key, 0) + 1
            for b in profiles(p.n):
                assert count_by_profile(p, b) == census.get(b, 0)

    def test_sums_to_total(self):
        for p in SMALL:
            assert sum(count_by_profile(p, b) for b in profiles(p.n)) == total_count(p)


class TestMultichainFormula:
    def test_examples(self):
        assert multichain_count_formula(Params(1, 3, 1), 2, (1, 1, 0)) == 3
        assert multichain_count_formula(Params(1, 3, 1), 2, (0, 2, 0)) == 1

    def test_l1_specialises_to_rank_count(self):
        for p in SMALL:
            for s1 in range(p.max_rank + 1):
                value = multichain_count_formula(p, 1, (s1, p.max_rank - s1))
                assert value == count_by_rank(p, s1)

    def test_rank_sum_violation(self):
        with pytest.raises(ParameterError):
            multichain_count_formula(Params(1, 3, 1), 2, (1, 0, 0))

    def test_matches_dp(self):
        for p in SMALL:
            poset = build_refinement_poset(p)
            for l in (1, 2, 3):
                for s in compositions(p.max_rank, l + 1):
                    targets = []
                    acc = 0
                    for si in s[:-1]:
                        acc += si
                        targets.append(acc)
                    assert multichain_count_formula(p, l, s) == poset.count_rank_multichains(targets)


class TestChainCountWithProfile:
    def test_example(self):
        assert chain_count_with_profile(Params(1, 3, 1), 2, (1, 1, 0), (1, 1, 0)) == 3

    def test_side_condition_zero(self):
        # profile with sum(i*b_i) != n
        assert chain_count_with_profile(Params(1, 3, 1), 2, (1, 1, 0), (0, 0, 1, 0)) == 0
        # block-count and rank mismatch: s_1 + sum(b) != n
        assert chain_count_with_profile(Params(1, 3, 1), 2, (0, 2, 0), (1, 1, 0)) == 0

    def test_finest_chain(self):
        p = Params(1, 4, 2)
        b = (4, 0, 0, 0)
        value = chain_count_with_profile(p, 1, (0, p.max_rank), b)
        assert value == 1

    def test_matches_brute_force(self):
        for p in SMALL:
            poset = build_refinement_poset(p)
            profiles_of = [block_profile(SetPartition(blocks), p).counts for blocks in poset.elements]
            buckets, down = {}, oracles.index_down(poset)
            for b_idx in range(len(poset)):
                for a in down(b_idx):
                    key = (profiles_of[a], poset.ranks[a], poset.ranks[b_idx])
                    buckets[key] = buckets.get(key, 0) + 1
            for s in compositions(p.max_rank, 3):
                for b in profiles(p.n):
                    expected = buckets.get((b, s[0], s[0] + s[1]), 0)
                    assert chain_count_with_profile(p, 2, s, b) == expected


class TestMaxChains:
    def test_examples(self):
        assert max_chains_formula(Params(1, 3, 1)) == 3
        assert max_chains_formula(Params(1, 3, 2)) == 2
        assert max_chains_formula(Params(1, 4, 3)) == 3

    def test_n_equals_t_unsupported(self):
        with pytest.raises(ParameterError):
            max_chains_formula(Params(1, 3, 3))

    def test_counts_rank_one_up_chains(self):
        # The product always equals the count of saturated chains through
        # ranks 1, ..., n-t; with a unique minimum those are maximal chains.
        for p in SMALL:
            if p.n <= p.t:
                continue
            poset = build_refinement_poset(p)
            targets = tuple(range(1, p.max_rank + 1))
            assert max_chains_formula(p) == poset.count_rank_multichains(targets)
            if p.m == 1:
                full = range(p.max_rank + 1)
                assert max_chains_formula(p) == poset.count_rank_multichains(full)


class TestZetaFormula:
    def test_examples(self):
        assert zeta_formula(Params(1, 3, 1), 3) == 12
        assert zeta_formula(Params(2, 3, 2), 2) == 5

    def test_l1_is_one(self):
        for p in SMALL:
            assert zeta_formula(p, 1) == 1

    def test_l2_is_total(self):
        for p in SMALL:
            assert zeta_formula(p, 2) == total_count(p)

    def test_l0_rejected(self):
        with pytest.raises(ParameterError):
            zeta_formula(Params(1, 3, 1), 0)

    def test_matches_brute(self):
        for p in SMALL:
            poset = build_refinement_poset(p)
            for l in (1, 2, 3, 4):
                assert zeta_formula(p, l) == oracles.zeta_by_down(poset, l)


class TestIntegerArithmetic:
    def test_formulas_equal_fraction_oracles(self):
        # Each formula divides an integer numerator once; the oracles keep
        # the Fraction arithmetic of the printed formulas.
        for m in range(1, 5):
            for n in range(1, 11):
                for t in range(1, n + 1):
                    p, d = Params(m, n, t), n - t
                    assert total_count(p) == oracles.total_count_fraction(m, n, t), p
                    for s in range(d + 1):
                        assert count_by_rank(p, s) == oracles.count_by_rank_fraction(m, n, t, s)
                    for l in range(1, 5):
                        assert zeta_formula(p, l) == oracles.zeta_fraction(m, n, t, l)
                    increments = compositions(d, 2) + compositions(d, 3)
                    for s in increments:
                        l = len(s) - 1
                        expected = oracles.multichain_count_fraction(m, n, t, s)
                        assert multichain_count_formula(p, l, s) == expected, (p, s)
                    for b in profiles(n):
                        assert count_by_profile(p, b) == oracles.count_by_profile_fraction(m, n, t, b)
                        for s in increments:
                            if s[0] + sum(b) == n or s == increments[0]:
                                expected = oracles.chain_count_with_profile_fraction(m, n, t, s, b)
                                assert chain_count_with_profile(p, len(s) - 1, s, b) == expected

    def test_non_integral_quotient_names_its_formula(self, monkeypatch):
        # With every binomial 1: (1 + 1) / 3 and, reduced, (2 - 0) / 4 at (1, 2, 1).
        monkeypatch.setattr(closedform, "binomial", lambda r, k: 1)
        p = Params(1, 2, 1)
        with pytest.raises(InvariantViolation, match="^total count formula evaluated to the non-integer 2/3$"):
            total_count(p)
        with pytest.raises(InvariantViolation, match="^rank count formula evaluated to the non-integer 1/2$"):
            count_by_rank(p, 0)
        with pytest.raises(InvariantViolation, match="^zeta formula evaluated to the non-integer 2/3$"):
            zeta_formula(p, 2)

    def test_negative_quotient_names_its_formula(self, monkeypatch):
        monkeypatch.setattr(closedform, "binomial", lambda r, k: -1)
        with pytest.raises(InvariantViolation, match="^total count formula evaluated to the negative value -1$"):
            total_count(Params(1, 1, 1))
