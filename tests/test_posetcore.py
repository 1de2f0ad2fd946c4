import pytest

import oracles
from nclab import posetcore
from nclab.errors import InvariantViolation, ParameterError
from nclab.ncpart import SetPartition, enumerate_nc, rank_of, tilde_transform
from nclab.params import Params
from nclab.posetcore import FinitePoset, build_refinement_poset

NC3 = Params(1, 3, 1)


def chain_poset(k):
    """Total order 0 < 1 < ... < k-1: element i covers i - 1."""
    return FinitePoset(tuple(range(k)), [(i, i + 1) for i in range(k - 1)], tuple(range(k)))


def antichain_poset(k):
    return FinitePoset(tuple(range(k)), [], (0,) * k)


def down_masks(poset):
    return [poset.down_mask(i) for i in range(len(poset))]


def moebius(poset, a, b):
    return oracles.moebius_row(down_masks(poset), a)[b]


class TestConstruction:
    def test_small_posets_are_valid(self):
        for poset in (chain_poset(3), antichain_poset(4), build_refinement_poset(NC3)):
            oracles.validate_partial_order(down_masks(poset))

    def test_refinement_poset_shape(self):
        poset = build_refinement_poset(NC3)
        assert len(poset) == 5
        by_rank = {}
        for i in range(len(poset)):
            by_rank.setdefault(poset.ranks[i], []).append(i)
        assert {r: len(v) for r, v in by_rank.items()} == {0: 1, 1: 3, 2: 1}

    def test_single_element_poset(self):
        poset = build_refinement_poset(Params(1, 3, 3))
        assert len(poset) == 1
        assert poset.max_rank == 0

    def test_232_levels(self):
        poset = build_refinement_poset(Params(2, 3, 2))
        levels = {}
        for i in range(len(poset)):
            levels[poset.ranks[i]] = levels.get(poset.ranks[i], 0) + 1
        assert levels == {0: 3, 1: 2}

    def test_gradedness_asserted(self):
        for p in (Params(1, 5, 2), Params(2, 3, 1), Params(2, 2, 2)):
            build_refinement_poset(p).assert_graded(expected_max_rank=p.max_rank)

    @pytest.mark.parametrize(
        "down, message",
        [
            ([0b001, 0b001, 0b111], "not reflexive"),  # 1 is not below itself
            ([0b011, 0b011, 0b111], "not antisymmetric"),  # 0 <= 1 and 1 <= 0
            ([0b001, 0b011, 0b110], "not transitive"),  # 0 <= 1 <= 2 but not 0 <= 2
        ],
    )
    def test_corrupted_down_masks_are_caught(self, down, message):
        with pytest.raises(AssertionError, match=message):
            oracles.validate_partial_order(down)

    @pytest.mark.parametrize(
        "elements, covers, ranks, message",
        [
            ("abc", [(0, 1)], (0, 1, 0), "maximal element 2 has rank 0"),
            # Element 0 is maximal below the top and element 1 minimal above rank 0.
            ("ab", [], (0, 1), "element"),
            # Only the minimum check can fire: element 1 sits at the top rank.
            ("abc", [(0, 2)], (0, 1, 1), "minimal element 1 has rank 1"),
        ],
    )
    def test_ungraded_posets_are_caught(self, elements, covers, ranks, message):
        with pytest.raises(InvariantViolation, match=message):
            FinitePoset(elements, covers, ranks).assert_graded()

    def test_refinement_is_partial_order_exhaustive(self):
        # reflexive, antisymmetric, transitive on every family with mn <= 8
        for m in range(1, 9):
            for n in range(1, 8 // m + 1):
                for t in range(1, n + 1):
                    oracles.validate_partial_order(down_masks(build_refinement_poset(Params(m, n, t))))


class TestCoverFirst:
    def test_refinement_poset_matches_all_pairs_oracle(self):
        # The cover-first build relies on gradedness; the oracle compares all
        # pairs and relies on nothing, for every family with mn <= 8.
        for m in range(1, 9):
            for n in range(1, 8 // m + 1):
                for t in range(1, n + 1):
                    parts = sorted(oracles.brute_nc(m, n, t), key=lambda b: (n - len(b), b))
                    down = oracles.refinement_down_masks(parts)
                    poset = build_refinement_poset(Params(m, n, t))
                    assert [sp.blocks for sp in poset.elements] == parts, (m, n, t)
                    assert poset.ranks == tuple(n - len(b) for b in parts), (m, n, t)
                    assert down_masks(poset) == down, (m, n, t)
                    assert list(poset.covers()) == oracles.covers_of(down), (m, n, t)

    def test_integer_keys_match_tuple_merges(self):
        # The integer-keyed cover search against rebuilding each merge as
        # tuples, every mn <= 9 and (1, 10, 1).
        params = [Params(1, 10, 1)]
        for m in range(1, 10):
            for n in range(1, 9 // m + 1):
                params += [Params(m, n, t) for t in range(1, n + 1)]
        for p in params:
            poset = build_refinement_poset(p)
            parts = [sp.blocks for sp in poset.elements]
            assert list(poset.covers()) == oracles.covers_by_merge(parts), p

    def test_ranks_each_partition_once(self, monkeypatch):
        calls = []

        def counting(partition, p):
            calls.append(partition)
            return rank_of(partition, p)

        monkeypatch.setattr(posetcore, "rank_of", counting)
        for p in (Params(1, 6, 1), Params(2, 4, 2)):
            calls.clear()
            poset = build_refinement_poset(p)
            assert len(calls) == len(set(calls)) == len(poset), p
            assert set(calls) == set(poset.elements), p

    def test_covers_close_transitively(self):
        poset = FinitePoset("abcd", [(1, 3), (0, 1), (0, 2), (2, 3)], (0, 1, 1, 2))
        assert down_masks(poset) == [0b0001, 0b0011, 0b0101, 0b1111]
        assert poset.covers() == ((0, 1), (0, 2), (1, 3), (2, 3))
        oracles.validate_partial_order(down_masks(poset))
        # The same order indexed top first: index order is no linear extension.
        poset = FinitePoset("dcba", [(2, 0), (3, 1), (1, 0), (3, 2)], (2, 1, 1, 0))
        assert down_masks(poset) == [0b1111, 0b1010, 0b1100, 0b1000]
        assert poset.covers() == ((1, 0), (2, 0), (3, 1), (3, 2))
        oracles.validate_partial_order(down_masks(poset))
        poset.assert_graded(expected_max_rank=2)

    def test_rejects_bad_input(self):
        ranks = (0, 1, 2)
        for cover in ((1, 0), (1, 1), (0, 3), (-1, 1), (0, 2), (3, 0)):
            with pytest.raises(ParameterError):
                FinitePoset("abc", [cover], ranks)
        with pytest.raises(ParameterError, match="one rank per element"):
            FinitePoset("abc", [(0, 1)], (0, 1))
        with pytest.raises(ParameterError, match="pairwise distinct"):
            FinitePoset("aab", [(0, 1)], ranks)


class TestCovers:
    def test_two_chain(self):
        assert chain_poset(2).covers() == ((0, 1),)

    def test_antichain_empty(self):
        assert antichain_poset(3).covers() == ()

    def test_nc3_covers(self):
        assert len(build_refinement_poset(NC3).covers()) == 6


class TestMoebius:
    # The Moebius function is a test oracle over down-masks, in tests/oracles.py.
    def test_reflexive(self):
        poset = build_refinement_poset(NC3)
        assert all(moebius(poset, i, i) == 1 for i in range(len(poset)))

    def test_two_chain(self):
        assert moebius(chain_poset(2), 0, 1) == -1

    def test_nc3_top(self):
        poset = build_refinement_poset(NC3)
        bottom = poset.elements.index(SetPartition([[1], [2], [3]]))
        top = poset.elements.index(SetPartition([[1, 2, 3]]))
        assert moebius(poset, bottom, top) == 2

    def test_incomparable_rejected(self):
        # A row holds the up-set of its element and nothing else.
        assert oracles.moebius_row(down_masks(antichain_poset(2)), 0) == {0: 1}

    def test_delta_sum_exhaustive(self):
        # sum of mu over every interval [a, b] vanishes unless a = b,
        # for every parameter triple with mn <= 8.
        for m in range(1, 9):
            for n in range(1, 8 // m + 1):
                for t in range(1, n + 1):
                    poset = build_refinement_poset(Params(m, n, t))
                    down = down_masks(poset)
                    for a in range(len(poset)):
                        row = oracles.moebius_row(down, a)
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
        assert oracles.verify_ideal_embedding(Params(1, 4, 2))
        assert oracles.verify_ideal_embedding(Params(2, 3, 2))
        assert oracles.verify_ideal_embedding(Params(1, 5, 1))

    def test_exhaustive_small(self):
        for m, n in ((1, 5), (1, 6), (2, 3), (3, 2)):
            for t in range(1, n + 1):
                assert oracles.verify_ideal_embedding(Params(m, n, t))

    def test_image_matches_membership(self):
        # The relabelled family is exactly the set of classical partitions
        # whose preimage passes the order-t tests.
        p = Params(1, 5, 3)
        image = {tilde_transform(part, p.t) for part in enumerate_nc(p)}
        classical = set(enumerate_nc(Params(1, 5, 1)))
        assert image <= classical
