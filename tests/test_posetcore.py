import inspect
import re

import pytest

import oracles
from nclab import ncpart, posetcore
from nclab.closedform import zeta_formula
from nclab.errors import InvariantViolation, ParameterError
from nclab.ncpart import SetPartition, enumerate_nc, tilde_transform
from nclab.params import Params
from nclab.polyalg import m_triangles_brute
from nclab.posetcore import FinitePoset, RefinementPoset, build_refinement_poset

NC3 = Params(1, 3, 1)


def chain_poset(k):
    """Total order 0 < 1 < ... < k-1: element i covers i - 1."""
    return FinitePoset(tuple(range(k)), [(i, i + 1) for i in range(k - 1)], tuple(range(k)))


def antichain_poset(k):
    return FinitePoset(tuple(range(k)), [], (0,) * k)


def down_masks(poset):
    if isinstance(poset, FinitePoset):
        return [poset.down_mask(i) for i in range(len(poset))]
    return oracles.down_masks(poset)


def moebius(poset, a, b):
    return oracles.moebius_row(down_masks(poset), a)[b]


def triples(limit):
    """Every (m, n, t) with mn <= limit."""
    return [
        Params(m, n, t)
        for m in range(1, limit + 1)
        for n in range(1, limit // m + 1)
        for t in range(1, n + 1)
    ]


def assert_down_by_rank_is_filtered(poset, p, oracle=None):
    down = oracles.index_down(poset)
    for b in range(len(poset)):
        filtered = [[] for _ in range(p.max_rank + 1)]  # down(b) filtered, rank by rank
        for a in down(b):
            filtered[poset.ranks[a]].append(a)
        for r in range(p.max_rank + 1):
            assert down(b, r) == filtered[r], (p, b, r)
            if oracle is not None:  # the same elements as the oracle's, each once
                assert sorted(filtered[r]) == oracle.down(b, r), (p, b, r)


def maximal_chains_by_covers(poset):
    """Saturated chains from rank 0 to the top rank, walked along a FinitePoset's covers."""
    ways = [int(rk == 0) for rk in poset.ranks]
    for a, b in sorted(poset.covers(), key=lambda cover: poset.ranks[cover[0]]):
        ways[b] += ways[a]
    return sum(w for w, rk in zip(ways, poset.ranks) if rk == max(poset.ranks))


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
        assert poset.ranks == (0,)

    def test_232_levels(self):
        poset = build_refinement_poset(Params(2, 3, 2))
        levels = {}
        for i in range(len(poset)):
            levels[poset.ranks[i]] = levels.get(poset.ranks[i], 0) + 1
        assert levels == {0: 3, 1: 2}

    def test_gradedness_asserted(self):
        for p in (Params(1, 5, 2), Params(2, 3, 1), Params(2, 2, 2)):
            poset = oracles.cover_first_poset(p)
            poset.assert_graded()
            assert max(poset.ranks) == p.max_rank

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
        for p in triples(8):
            oracles.validate_partial_order(down_masks(build_refinement_poset(p)))


class TestCoverFirst:
    def test_refinement_poset_matches_all_pairs_oracle(self):
        # The block-product down-sets and the cover-first poset against the
        # oracle that compares all pairs and relies on nothing, mn <= 8.
        for p in triples(8):
            n = p.n
            parts = sorted(oracles.brute_nc(p.m, n, p.t), key=lambda b: (n - len(b), b))
            down = oracles.refinement_down_masks(parts)
            poset = build_refinement_poset(p)
            assert list(poset.elements) == parts, p
            assert poset.ranks == tuple(n - len(b) for b in parts), p
            assert down_masks(poset) == down, p
            assert list(oracles.cover_first_poset(p).covers()) == oracles.covers_of(down), p

    def test_down_matches_cover_first_poset(self):
        # down(b) against the transitive closure of the merge covers, and the
        # comparable pairs against the proven zeta(3), every mn <= 10.
        for p in triples(10):
            poset = build_refinement_poset(p)
            oracle = oracles.cover_first_poset(p)
            assert poset.elements == tuple(sp.blocks for sp in oracle.elements), p
            assert down_masks(poset) == down_masks(oracle), p
            assert sum(len(poset.down(b)) for b in range(len(poset))) == zeta_formula(p, 3), p

    def test_down_by_rank_is_down_filtered_by_rank(self):
        # down(b, r) lists exactly the rank-r entries of down(b), in order,
        # on both posets, for every b and r, every mn <= 10.  The refinement
        # poset lists element keys: taken through the inverse of poset.keys,
        # its down(b, r) is the cover-first poset's index down-set.
        for p in triples(10):
            oracle = oracles.cover_first_poset(p)
            assert_down_by_rank_is_filtered(build_refinement_poset(p), p, oracle)
            assert_down_by_rank_is_filtered(oracle, p)

    def test_narrowed_count_window_is_caught(self, monkeypatch):
        # A _with_count whose count window stops one short of its top must
        # fail the comparison above.
        source = inspect.getsource(posetcore._with_count)
        mutant = source.replace("min(last, e - lo) + 1", "min(last, e - lo)")
        assert mutant != source
        namespace = dict(vars(posetcore))
        exec(mutant, namespace)
        monkeypatch.setattr(posetcore, "_with_count", namespace["_with_count"])
        with pytest.raises(AssertionError):
            for p in triples(6):
                assert_down_by_rank_is_filtered(build_refinement_poset(p), p)

    def test_elements_are_the_enumeration_stably_sorted_by_rank(self):
        for p in triples(10):
            expected = sorted((sp.blocks for sp in enumerate_nc(p)), key=lambda blocks: p.n - len(blocks))
            poset = build_refinement_poset(p)
            assert list(poset.elements) == expected, p
            assert poset.ranks == tuple(p.n - len(blocks) for blocks in expected), p

    def test_split_outside_the_family_raises(self, monkeypatch):
        # Position sets of m = 1 split an m = 2 block into odd blocks, which
        # are not in the family, so no reader of down(b) has an entry for
        # their keys: the M-triangle refuses them on the whole down-set of
        # the first element, and the chain DP on the rank-0 one, which holds
        # the odd splits.  At (2,3,1) the first rank-1 element is read again
        # after the top's read released its first block's splits, and the
        # rebuilt splits are refused too.
        real = posetcore._first_block_position_sets
        monkeypatch.setattr(posetcore, "_first_block_position_sets", lambda size, m: real(size, 1))
        with pytest.raises(InvariantViolation, match=r"a split of \(\(1, 2\), \(3, 4\)\) is not in the family"):
            list(m_triangles_brute(2, 2, (1,)))
        with pytest.raises(InvariantViolation, match=r"\(\(1, 2, 3, 4\),\), 0\) holds an id not in the family"):
            build_refinement_poset(Params(2, 2, 1)).count_rank_multichains((0, 1))
        poset = build_refinement_poset(Params(2, 3, 1))
        below = poset.ranks.index(1)
        for targets in ((0, 1), (0, 2), (0, 1)):
            with pytest.raises(InvariantViolation, match="not in the family at rank 0"):
                poset.count_rank_multichains(targets)
            if targets == (0, 2):
                assert poset.elements[below][0] not in poset._splits_of

    def test_key_of_an_unread_element_raises(self, monkeypatch):
        # A down-set that lists the next element of b's own rank, planted
        # here, finds no entry in either reader: the M-triangle has not
        # solved it yet (it would read 0 there), and the chain DP holds only
        # the elements of the previous target rank.
        real = RefinementPoset.down

        def planted(self, b, r=None):
            keys = real(self, b, r)
            return keys + [self.keys[b + 1]] if self.ranks[b] == self.ranks[b + 1] == 1 else keys

        monkeypatch.setattr(RefinementPoset, "down", planted)
        poset = build_refinement_poset(Params(1, 4, 1))
        first = re.escape(str(poset.elements[poset.ranks.index(1)]))
        with pytest.raises(InvariantViolation, match=f"a split of {first} is not in the family below it"):
            list(m_triangles_brute(1, 4, (1,)))
        with pytest.raises(InvariantViolation, match=f"down\\({first}, 0\\) holds an id not in the family"):
            poset.count_rank_multichains((0, 1))

    def test_builds_from_block_tuples_alone(self, monkeypatch):
        # The build makes no rank_of call, creates no SetPartition and does
        # not go through enumerate_nc.
        def refuse(*args, **kwargs):
            raise AssertionError("the refinement poset build called a partition-object path")

        monkeypatch.setattr(ncpart, "rank_of", refuse)
        monkeypatch.setattr(ncpart, "enumerate_nc", refuse)
        monkeypatch.setattr(ncpart.SetPartition, "__init__", refuse)
        monkeypatch.setattr(ncpart.SetPartition, "_trusted", refuse)
        for name in ("rank_of", "enumerate_nc", "SetPartition"):
            monkeypatch.setattr(posetcore, name, refuse, raising=False)
        for p in (Params(1, 6, 1), Params(2, 4, 2)):
            poset = build_refinement_poset(p)
            assert all(type(blocks) is tuple for blocks in poset.elements), p
            assert poset.count_rank_multichains(range(p.max_rank + 1)) > 0, p

    def test_keys_and_last_readers(self):
        # Both come off one pass over the levels: the key of an element is
        # the sum of its blocks' partial keys, one distinct key per element,
        # and _last[block] is the last element holding the block.
        for p in (Params(1, 6, 1), Params(2, 4, 1), Params(3, 3, 2)):
            poset = build_refinement_poset(p)
            keys, last = [], {}
            for i, blocks in enumerate(poset.elements):
                keys.append(sum(poset._block + block[0] * sum(poset._bit[x] for x in block) for block in blocks))
                last.update(dict.fromkeys(blocks, i))
            assert poset.keys == tuple(keys) and len(set(keys)) == len(keys), p
            assert poset._last == last, p

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
        poset.assert_graded()
        assert max(poset.ranks) == 2

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
        assert len(oracles.cover_first_poset(NC3).covers()) == 6


class TestMoebius:
    # The Moebius function is a test oracle over down-masks, in tests/oracles.py.
    def test_reflexive(self):
        poset = build_refinement_poset(NC3)
        assert all(moebius(poset, i, i) == 1 for i in range(len(poset)))

    def test_two_chain(self):
        assert moebius(chain_poset(2), 0, 1) == -1

    def test_nc3_top(self):
        poset = build_refinement_poset(NC3)
        bottom = poset.elements.index(SetPartition([[1], [2], [3]]).blocks)
        top = poset.elements.index(SetPartition([[1, 2, 3]]).blocks)
        assert moebius(poset, bottom, top) == 2

    def test_incomparable_rejected(self):
        # A row holds the up-set of its element and nothing else.
        assert oracles.moebius_row(down_masks(antichain_poset(2)), 0) == {0: 1}

    def test_delta_sum_exhaustive(self):
        # sum of mu over every interval [a, b] vanishes unless a = b,
        # for every parameter triple with mn <= 8.
        for p in triples(8):
            poset = build_refinement_poset(p)
            down = down_masks(poset)
            for a in range(len(poset)):
                row = oracles.moebius_row(down, a)
                for b in range(len(poset)):
                    if not down[b] >> a & 1:
                        continue
                    total = sum(mu for c, mu in row.items() if down[b] >> c & 1)
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

    def test_targets_out_of_range_rejected(self):
        for targets in ((-1, 0), (1, 3)):
            with pytest.raises(ParameterError, match=r"lie in \[0, 2\]"):
                build_refinement_poset(NC3).count_rank_multichains(targets)

    def test_maximal_chains(self):
        for p, count in ((NC3, 3), (Params(1, 3, 2), 2), (Params(1, 3, 3), 1)):
            assert build_refinement_poset(p).count_rank_multichains(range(p.max_rank + 1)) == count

    def test_maximal_chains_equal_full_rank_multichains(self):
        # The one chain DP on both posets against saturated chains walked
        # along the merge covers.
        for p in (Params(1, 4, 1), Params(1, 5, 2), Params(2, 3, 1), Params(2, 3, 2)):
            oracle = oracles.cover_first_poset(p)
            targets = tuple(range(p.max_rank + 1))
            walked = maximal_chains_by_covers(oracle)
            assert build_refinement_poset(p).count_rank_multichains(targets) == walked, p
            assert oracle.count_rank_multichains(targets) == walked, p


class TestZeta:
    # zeta(l) counts multichains by a DP over down(b), in tests/oracles.py.
    def test_l1_is_one(self):
        assert oracles.zeta_by_down(build_refinement_poset(NC3), 1) == 1

    def test_l2_is_size(self):
        assert oracles.zeta_by_down(build_refinement_poset(NC3), 2) == 5

    def test_nc3_l3(self):
        assert oracles.zeta_by_down(build_refinement_poset(NC3), 3) == 12

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
                assert total == oracles.zeta_by_down(poset, l)


def embedded(p):
    classical = build_refinement_poset(Params(p.m, p.n, 1))
    return oracles.verify_ideal_embedding(p, classical.elements, down_masks(classical))


class TestIdealEmbedding:
    def test_examples(self):
        assert embedded(Params(1, 4, 2))
        assert embedded(Params(2, 3, 2))
        assert embedded(Params(1, 5, 1))

    def test_exhaustive_small(self):
        for m, n in ((1, 5), (1, 6), (2, 3), (3, 2)):
            for t in range(1, n + 1):
                assert embedded(Params(m, n, t))

    def test_image_matches_membership(self):
        # The relabelled family is exactly the set of classical partitions
        # whose preimage passes the order-t tests.
        p = Params(1, 5, 3)
        image = {tilde_transform(part, p.t) for part in enumerate_nc(p)}
        classical = set(enumerate_nc(Params(1, 5, 1)))
        assert image <= classical
