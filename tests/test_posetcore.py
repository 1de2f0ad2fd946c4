import pytest

from nclab.errors import DomainError, ParameterError
from nclab.ncpart import SetPartition, enumerate_nc, tilde_transform
from nclab.params import Params
from nclab.posetcore import FinitePoset, build_refinement_poset, verify_ideal_embedding

NC3 = Params(1, 3, 1)


def chain_poset(k):
    """Total order 0 < 1 < ... < k-1: the down-set of i is {0, ..., i}."""
    return FinitePoset(tuple(range(k)), [(2 << i) - 1 for i in range(k)], ranks=tuple(range(k)))


def antichain_poset(k):
    return FinitePoset(tuple(range(k)), [1 << i for i in range(k)], ranks=(0,) * k)


class TestConstruction:
    def test_small_posets_are_valid(self):
        for poset in (chain_poset(3), antichain_poset(4), build_refinement_poset(NC3)):
            poset.validate_partial_order()

    def test_refinement_poset_shape(self):
        poset = build_refinement_poset(NC3)
        assert len(poset) == 5
        by_rank = {}
        for i in range(len(poset)):
            by_rank.setdefault(poset.rank(i), []).append(i)
        assert {r: len(v) for r, v in by_rank.items()} == {0: 1, 1: 3, 2: 1}

    def test_single_element_poset(self):
        poset = build_refinement_poset(Params(1, 3, 3))
        assert len(poset) == 1
        assert poset.max_rank == 0

    def test_232_levels(self):
        poset = build_refinement_poset(Params(2, 3, 2))
        levels = {}
        for i in range(len(poset)):
            levels[poset.rank(i)] = levels.get(poset.rank(i), 0) + 1
        assert levels == {0: 3, 1: 2}

    def test_gradedness_asserted(self):
        for p in (Params(1, 5, 2), Params(2, 3, 1), Params(2, 2, 2)):
            build_refinement_poset(p).assert_graded(expected_max_rank=p.max_rank)

    def test_refinement_is_partial_order_exhaustive(self):
        # reflexive, antisymmetric, transitive on every family with mn <= 8
        for m in range(1, 9):
            for n in range(1, 8 // m + 1):
                for t in range(1, n + 1):
                    build_refinement_poset(Params(m, n, t)).validate_partial_order()


class TestCovers:
    def test_two_chain(self):
        assert chain_poset(2).covers() == ((0, 1),)

    def test_antichain_empty(self):
        assert antichain_poset(3).covers() == ()

    def test_nc3_covers(self):
        assert len(build_refinement_poset(NC3).covers()) == 6


class TestMoebius:
    def test_reflexive(self):
        poset = build_refinement_poset(NC3)
        assert all(poset.moebius(i, i) == 1 for i in range(len(poset)))

    def test_two_chain(self):
        assert chain_poset(2).moebius(0, 1) == -1

    def test_nc3_top(self):
        poset = build_refinement_poset(NC3)
        bottom = poset.index_of(SetPartition.from_blocks([[1], [2], [3]]))
        top = poset.index_of(SetPartition.from_blocks([[1, 2, 3]]))
        assert poset.moebius(bottom, top) == 2

    def test_incomparable_rejected(self):
        poset = antichain_poset(2)
        with pytest.raises(DomainError):
            poset.moebius(0, 1)

    def test_delta_sum_exhaustive(self):
        # sum of mu over every interval [a, b] vanishes unless a = b,
        # for every parameter triple with mn <= 8.
        for m in range(1, 9):
            for n in range(1, 8 // m + 1):
                for t in range(1, n + 1):
                    poset = build_refinement_poset(Params(m, n, t))
                    for a in range(len(poset)):
                        row = poset._moebius_row(a)
                        for b in range(len(poset)):
                            if not poset.leq(a, b):
                                continue
                            total = sum(
                                mu for c, mu in row.items() if poset.leq(c, b)
                            )
                            assert total == (1 if a == b else 0)


class TestChainCounts:
    def test_empty_targets(self):
        assert build_refinement_poset(NC3).count_rank_multichains(()) == 1

    def test_nc3_pairs(self):
        poset = build_refinement_poset(NC3)
        assert poset.count_rank_multichains((1, 2)) == 3
        assert poset.count_rank_multichains((0, 1, 2)) == 3

    def test_decreasing_targets_rejected(self):
        with pytest.raises(ParameterError):
            build_refinement_poset(NC3).count_rank_multichains((2, 1))

    def test_maximal_chains(self):
        assert build_refinement_poset(NC3).count_maximal_chains() == 3
        assert build_refinement_poset(Params(1, 3, 2)).count_maximal_chains() == 2
        assert build_refinement_poset(Params(1, 3, 3)).count_maximal_chains() == 1

    def test_maximal_chains_equal_full_rank_multichains(self):
        for p in (Params(1, 4, 1), Params(1, 5, 2), Params(2, 3, 1), Params(2, 3, 2)):
            poset = build_refinement_poset(p)
            targets = tuple(range(p.max_rank + 1))
            assert poset.count_maximal_chains() == poset.count_rank_multichains(targets)


class TestZeta:
    def test_l1_is_one(self):
        assert build_refinement_poset(NC3).zeta_brute(1) == 1

    def test_l2_is_size(self):
        assert build_refinement_poset(NC3).zeta_brute(2) == 5

    def test_nc3_l3(self):
        assert build_refinement_poset(NC3).zeta_brute(3) == 12

    def test_l0_rejected(self):
        with pytest.raises(ParameterError):
            build_refinement_poset(NC3).zeta_brute(0)

    def test_zeta_decomposes_over_rank_vectors(self):
        from itertools import combinations_with_replacement

        for p in (Params(1, 4, 1), Params(2, 3, 2), Params(1, 4, 2)):
            poset = build_refinement_poset(p)
            for l in (2, 3, 4):
                total = sum(
                    poset.count_rank_multichains(targets)
                    for targets in combinations_with_replacement(
                        range(p.max_rank + 1), l - 1
                    )
                )
                assert total == poset.zeta_brute(l)


class TestIdealEmbedding:
    def test_examples(self):
        assert verify_ideal_embedding(Params(1, 4, 2))
        assert verify_ideal_embedding(Params(2, 3, 2))
        assert verify_ideal_embedding(Params(1, 5, 1))

    def test_exhaustive_small(self):
        for m, n in ((1, 5), (1, 6), (2, 3), (3, 2)):
            for t in range(1, n + 1):
                assert verify_ideal_embedding(Params(m, n, t))

    def test_image_matches_membership(self):
        # The relabelled family is exactly the set of classical partitions
        # whose preimage passes the order-t tests.
        p = Params(1, 5, 3)
        image = {tilde_transform(part, p.t) for part in enumerate_nc(p)}
        classical = set(enumerate_nc(Params(1, 5, 1)))
        assert image <= classical
