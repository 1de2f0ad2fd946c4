from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nclab import ncpart
from nclab.errors import DomainError, InvariantViolation, ParameterError, ResourceLimitError
from nclab.ncpart import SetPartition, block_profile, census, enumerate_nc, rank_of, tilde_transform
from nclab.params import Params

FIGURE_PARTITION = SetPartition([{1, 6, 7, 8}, {2, 9, 12, 13}, {3, 14}, {4, 5}, {10, 11}])
FIGURE_CROSSING = SetPartition([{1, 6, 7, 8}, {2, 9, 12, 13}, {3, 4, 5, 14}, {10, 11}])


def triples(max_size):
    """Every (m, n, t) with mn <= max_size."""
    for m in range(1, max_size + 1):
        for n in range(1, max_size // m + 1):
            for t in range(1, n + 1):
                yield m, n, t


@st.composite
def set_partitions(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    blocks = []
    for x in range(1, n + 1):
        choice = draw(st.integers(min_value=0, max_value=len(blocks)))
        if choice == len(blocks):
            blocks.append([x])
        else:
            blocks[choice].append(x)
    return SetPartition(blocks)


class TestSetPartition:
    def test_canonical_form(self):
        part = SetPartition([[3, 1], [4, 2]])
        assert part.blocks == ((1, 3), (2, 4))
        assert part == SetPartition([[2, 4], [1, 3]])

    def test_rejects_overlap_and_gaps(self):
        with pytest.raises(DomainError):
            SetPartition([[1, 2], [2, 3]])
        with pytest.raises(DomainError):
            SetPartition([[1, 3]])
        with pytest.raises(DomainError):
            SetPartition([[1], []])

    def test_rejects_bool_elements(self):
        # bool is a subclass of int, so True would otherwise pass as element 1.
        with pytest.raises(DomainError, match="positive integers, got True"):
            SetPartition([[True]])
        with pytest.raises(DomainError, match="positive integers, got True"):
            SetPartition([[2], [True]])

    def test_rejects_blocks_that_are_not_iterables(self):
        # tuple(1) would raise a bare TypeError.
        for blocks in ([1, 2], [[1], 2]):
            with pytest.raises(DomainError, match="iterable of positive integers"):
                SetPartition(blocks)

    def test_rejects_non_int_elements_before_sorting(self):
        # Sorting a block of mixed types would raise a bare TypeError.
        for blocks in ([[1, "a"]], [[2], [1, None]]):
            with pytest.raises(DomainError, match="positive integers"):
                SetPartition(blocks)

    def test_sorted_tuple_blocks_are_kept(self):
        class Block(tuple):
            pass

        kept, unsorted, listed, sub = (1, 4), (3, 2), [6, 5], Block((7, 8))
        part = SetPartition((sub, listed, unsorted, kept))
        assert part.blocks == ((1, 4), (2, 3), (5, 6), (7, 8))
        assert part.blocks[0] is kept
        for block in part.blocks[1:]:
            assert type(block) is tuple
        assert part.blocks[3] is not sub
        copy = SetPartition([[4, 1], [2, 3], [5, 6], [8, 7]])
        assert part == copy and hash(part) == hash(copy)

    def test_json_round_trip(self):
        data = FIGURE_PARTITION.to_json_dict()
        assert data["n"] == 14
        assert SetPartition(data["blocks"]) == FIGURE_PARTITION


class TestTPartition:
    # The literal predicates live in tests/oracles.py and take block tuples.
    def test_figure_example(self):
        assert oracles.is_t_partition(FIGURE_PARTITION.blocks, 3)

    def test_pair_violation(self):
        assert not oracles.is_t_partition(SetPartition([[1, 2]]).blocks, 2)

    def test_singletons(self):
        singles = SetPartition([[x] for x in range(1, 6)])
        assert oracles.is_t_partition(singles.blocks, 5)

    def test_t_out_of_range(self):
        # The t-range guard that remains in ncpart is the relabelling map's.
        with pytest.raises(ParameterError):
            tilde_transform(SetPartition([[1]]), 2)
        with pytest.raises(ParameterError):
            tilde_transform(SetPartition([[1]]), 0)


class TestNoncrossing:
    def test_figure_is_noncrossing(self):
        assert oracles.is_noncrossing_t(FIGURE_PARTITION.blocks, 3)

    def test_figure_crossing_variant(self):
        assert not oracles.is_noncrossing_t(FIGURE_CROSSING.blocks, 3)

    def test_t_sensitivity(self):
        blocks = SetPartition([[1, 3], [2, 4]]).blocks
        assert not oracles.is_noncrossing_t(blocks, 1)
        assert oracles.is_noncrossing_t(blocks, 2)

    def test_classical_agreement_exhaustive(self):
        # At t = 1 the order-t test must coincide with the classical one.
        for n in range(1, 9):
            for blocks in oracles.all_set_partitions(n):
                expected = oracles.is_noncrossing_classical(blocks)
                assert oracles.is_noncrossing_t(blocks, 1) == expected

    def test_oracle_agreement_small(self):
        # The lemma of _nc_blocks: a t-partition is non-crossing of order t
        # iff its relabelling lies in the classical family enumerate_nc lists.
        for n in range(2, 7):
            classical = set(enumerate_nc(Params(1, n, 1)))
            for t in range(1, n + 1):
                for blocks in oracles.all_set_partitions(n):
                    if not oracles.is_t_partition(blocks, t):
                        continue
                    moved = tilde_transform(SetPartition(blocks), t)
                    assert (moved in classical) == oracles.is_noncrossing_t(blocks, t)


class TestRefines:
    def test_reflexive(self):
        assert oracles.refines(FIGURE_PARTITION.blocks, FIGURE_PARTITION.blocks)

    def test_singletons_below_everything(self):
        singles = tuple((x,) for x in range(1, 5))
        assert oracles.refines(singles, ((1, 2, 3, 4),))

    def test_incomparable(self):
        a, b = ((1, 2), (3,)), ((1, 3), (2,))
        assert not oracles.refines(a, b)
        assert not oracles.refines(b, a)

    def test_matches_oracle(self):
        # The down-mask oracle, which the refinement poset is compared with,
        # against the pairwise definition.
        parts = oracles.all_set_partitions(5)
        down = oracles.refinement_down_masks(parts)
        for j, b in enumerate(parts):
            for i, a in enumerate(parts):
                assert bool(down[j] >> i & 1) == oracles.refines(a, b)


class TestRankAndProfile:
    def test_figure_rank(self):
        assert rank_of(FIGURE_PARTITION, Params(2, 7, 3)) == 2

    def test_singleton_rank_zero(self):
        for n in (1, 3, 5):
            singles = SetPartition([[x] for x in range(1, n + 1)])
            assert rank_of(singles, Params(1, n, 1)) == 0

    def test_single_block_rank(self):
        assert rank_of(SetPartition([[1, 2, 3]]), Params(1, 3, 1)) == 2

    def test_figure_weight(self):
        profile = block_profile(FIGURE_PARTITION, Params(2, 7, 3))
        assert profile.counts == (3, 2, 0, 0, 0, 0, 0)
        assert profile.weight_signature() == {1: 3, 2: 2}
        assert str(profile) == "x1^3 x2^2"

    def test_all_singletons_profile(self):
        singles = SetPartition([[x] for x in range(1, 5)])
        assert block_profile(singles, Params(1, 4, 1)).counts == (4, 0, 0, 0)

    def test_single_block_profile(self):
        part = SetPartition([[1, 2, 3, 4, 5, 6]])
        assert block_profile(part, Params(2, 3, 1)).counts == (0, 0, 1)

    def test_indivisible_block_rejected(self):
        with pytest.raises(DomainError):
            block_profile(SetPartition([[1], [2, 3, 4]]), Params(2, 2, 1))


class TestTilde:
    def test_swap_example(self):
        part = SetPartition([[1, 3], [2, 4]])
        assert tilde_transform(part, 2) == SetPartition([[2, 3], [1, 4]])
        assert oracles.is_noncrossing_t(tilde_transform(part, 2).blocks, 1)

    def test_identity_at_t1(self):
        assert tilde_transform(FIGURE_PARTITION, 1) == FIGURE_PARTITION

    def test_involution_figure(self):
        assert tilde_transform(tilde_transform(FIGURE_PARTITION, 3), 3) == FIGURE_PARTITION

    @settings(max_examples=60, deadline=None)
    @given(set_partitions())
    def test_involution_random(self, part):
        for t in range(1, part.ground_size + 1):
            assert tilde_transform(tilde_transform(part, t), t) == part

    def test_membership_equivalence_exhaustive(self):
        # Order-t membership transfers through the relabelling map, both
        # ways, for every partition of {1..N} with N <= 8 and every t.
        for n in range(2, 9):
            partitions = [SetPartition(blocks) for blocks in oracles.all_set_partitions(n)]
            for t in range(1, n + 1):
                for part in partitions:
                    moved = tilde_transform(part, t).blocks
                    if not oracles.is_t_partition(part.blocks, t):
                        assert not oracles.is_t_partition(moved, t)
                        continue
                    lhs = oracles.is_noncrossing_t(part.blocks, t)
                    rhs = oracles.is_noncrossing_t(moved, 1)
                    assert lhs == rhs


class TestEnumerate:
    def test_known_count_232(self):
        assert len(enumerate_nc(Params(2, 3, 2))) == 5

    def test_t_equals_n_single(self):
        for n in (1, 2, 4):
            parts = enumerate_nc(Params(1, n, n))
            assert parts == (SetPartition([[x] for x in range(1, n + 1)]),)

    def test_derived_count(self):
        assert len(enumerate_nc(Params(1, 4, 2))) == 9

    def test_matches_brute_force(self):
        # The block-id array generator against the filter over all set
        # partitions, for every (m, n, t) with mn <= 8.
        for m in range(1, 9):
            for n in range(1, 8 // m + 1):
                for t in range(1, n + 1):
                    brute = oracles.brute_nc(m, n, t)
                    parts = enumerate_nc(Params(m, n, t))
                    assert list(parts) == [SetPartition(blocks) for blocks in brute], (m, n, t)
                    assert [sp.ground_size for sp in parts] == [
                        oracles.ground_size(blocks) for blocks in brute
                    ], (m, n, t)

    def test_outputs_pass_literal_scan(self):
        # The generator filters by the t-partition test alone, on the lemma in
        # the docstring of _nc_blocks; the literal forbidden-quadruple scan
        # checks every output for every (m, n, t) with mn <= 10.
        for triple in triples(10):
            for part in enumerate_nc(Params(*triple)):
                assert oracles.is_noncrossing_t(part.blocks, triple[2]), (triple, str(part))

    def test_outputs_match_validating_constructor(self):
        # Outputs skip the validating constructor; rebuilding each through it
        # must give the same blocks and ground size.
        for triple in triples(10):
            p = Params(*triple)
            for part in enumerate_nc(p):
                rebuilt = SetPartition(part.blocks)
                assert part.blocks == rebuilt.blocks, (triple, str(part))
                assert part.ground_size == rebuilt.ground_size == p.ground_size

    def test_cardinality_formula_all_m(self):
        # the formula match holds for every m with mn <= 10, not only m <= 3
        from nclab.closedform import total_count

        for m in range(4, 11):
            for n in range(1, 10 // m + 1):
                for t in range(1, n + 1):
                    p = Params(m, n, t)
                    assert len(enumerate_nc(p)) == total_count(p)

    def test_output_sorted_and_deterministic(self):
        # At t = 1 the order rests on the lemma in enumerate_nc's docstring.
        for triple in triples(10):
            parts = enumerate_nc(Params(*triple))
            assert list(parts) == sorted(parts, key=lambda sp: sp.blocks), triple
            assert parts == enumerate_nc(Params(*triple)), triple

    def test_rank_bounds_and_top_level(self):
        for m, n, t in ((1, 5, 2), (2, 3, 2), (2, 2, 1), (3, 2, 1)):
            p = Params(m, n, t)
            parts = enumerate_nc(p)
            ranks = [rank_of(part, p) for part in parts]
            assert all(0 <= r <= p.max_rank for r in ranks)
            assert max(ranks) == p.max_rank
            for part, r in zip(parts, ranks):
                if r == p.max_rank:
                    assert part.block_count == t

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            enumerate_nc(Params(1, 6, 1), max_objects=10)


class TestCensus:
    def test_matches_tallies_over_enumeration(self):
        for triple in triples(10):
            p = Params(*triple)
            parts = enumerate_nc(p)
            assert census(p, "rank") == Counter(rank_of(sp, p) for sp in parts), triple
            assert census(p, "profile") == Counter(
                block_profile(sp, p).counts for sp in parts
            ), triple
            assert census(p, "total") == Counter(total=len(parts)), triple

    def test_rejects_unknown_key_and_guards(self):
        with pytest.raises(ParameterError):
            census(Params(1, 3, 1), "blocks")
        with pytest.raises(ResourceLimitError):
            census(Params(1, 6, 1), "total", max_objects=10)


# One broken shape per clause of the generator's exact shape check, on the
# ground set {1, 2, 3}.
BROKEN_SHAPES = {
    "repeated element": ((1, 2), (2,)),
    "missing element": ((1, 2),),
    "element above mn": ((1, 2, 4),),
    "descending block": ((1, 3, 2),),
    "blocks out of minimum order": ((2, 3), (1,)),
    "empty block": ((1, 2, 3), ()),
}


@pytest.mark.parametrize("name", sorted(BROKEN_SHAPES))
def test_shape_check_rejects(monkeypatch, name):
    monkeypatch.setattr(ncpart, "_classical_shapes", lambda *args: iter([BROKEN_SHAPES[name]]))
    with pytest.raises(InvariantViolation):
        enumerate_nc(Params(1, 3, 1))
    with pytest.raises(InvariantViolation):
        census(Params(1, 3, 1), "total")
