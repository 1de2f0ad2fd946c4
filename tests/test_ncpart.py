import json
from collections import Counter
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nclab import cli, ncpart
from nclab.errors import DomainError, InvariantViolation, ParameterError, ResourceLimitError
from nclab.ncpart import SetPartition, block_profile, census, enumerate_nc, rank_of, tilde_transform
from nclab.params import Params

FIGURE_PARTITION = SetPartition([{1, 6, 7, 8}, {2, 9, 12, 13}, {3, 14}, {4, 5}, {10, 11}])
FIGURE_CROSSING = SetPartition([{1, 6, 7, 8}, {2, 9, 12, 13}, {3, 4, 5, 14}, {10, 11}])


def plan_steps(m, n, t):
    """The closed bound on the reader pass that the guard of ncpart._nc_blocks checks."""
    return m * (2 * t - 1) * comb(n + 2, 3) + m * m * comb(n + 2, 4)


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

    def test_json_round_trip(self, capsys):
        # Each `enumerate` line decodes to its partition; the figure's is among them.
        assert cli.main(["enumerate", "--m", "2", "--n", "7", "--t", "3"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert all(data["n"] == 14 for data in lines)
        assert [SetPartition(data["blocks"]) for data in lines] == list(enumerate_nc(Params(2, 7, 3)))
        assert {"n": 14, "blocks": [list(block) for block in FIGURE_PARTITION.blocks]} in lines


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


class TestStream:
    def test_filter_oracle_matches_brute_force(self):
        # The compose-then-filter stream, sorted, is the brute-force family.
        for triple in triples(8):
            assert sorted(oracles.nc_blocks_by_filter(*triple)) == oracles.brute_nc(*triple), triple

    def test_same_sequence_as_the_filter_oracle(self):
        # Pruning at the source, streaming and the per-block check leave the
        # stream as it was, element for element, and every output also passes
        # the point-by-point check that the per-block verdicts replaced.
        for triple in triples(10):
            p = Params(*triple)
            stream = list(ncpart._nc_blocks(p, 10**7))
            assert stream == list(oracles.nc_blocks_by_filter(*triple)), triple
            for blocks in stream:
                oracles._check_shape(blocks, p.ground_size)

    def test_position_sets_match_the_recursive_walk(self):
        # The explicit-stack walk lists the recursive walk's sets, in its order.
        for m in range(1, 4):
            for size in range(15):
                walk = ncpart._first_block_position_sets(size, m)
                assert walk == oracles.first_block_position_sets_recursive(size, m), (size, m)

    def test_plan_steps_bound_the_reader_pass(self):
        # The closed step bound of _nc_blocks holds every pair (y, z) that
        # _run_plan visits and every reader that _gap_plan spreads, and the
        # guard checks it before it makes any plan.
        for m, n, t in triples(20):
            size, plans = m * n, {}
            ncpart._run_plan(m, size, t, plans)
            visits = sum(-(-z // m) for s, _ in plans for z in range(1, s + 1))
            readers = ncpart._gap_plan(m, (size, 1, t))[0]
            visits += sum(len(plans[g, a][1]) for g, _, a in readers)
            assert visits <= plan_steps(m, n, t), (m, n, t)
        with mock.patch.object(ncpart, "_gap_plan", side_effect=AssertionError("planned")):
            with pytest.raises(ResourceLimitError, match="planning .* takes up to 1344 steps"):
                list(ncpart._nc_blocks(Params(2, 7, 3), 1343))

    @pytest.mark.parametrize("triple", [(1, 9, 1), (1, 8, 4), (2, 5, 1), (2, 5, 3), (3, 3, 2), (4, 2, 2)])
    def test_plan_counts_runs_and_tables_exactly(self, monkeypatch, triple):
        # With _gap_plan's readers the generator expands each run it reaches
        # once and keeps exactly the tables read more than once; the cap
        # counts exactly the outputs plus the shapes built into gap tables,
        # on top of the plan's step bound: the stream runs at that cap and
        # not at one less.
        p = Params(*triple)
        readers = ncpart._gap_plan(p.m, (p.ground_size, 1, p.t))[0]
        expanded, built, kept = Counter(), {}, {}
        shapes_of, table_of = ncpart._classical_shapes, ncpart._gap_table

        def shapes(m, key, *rest):
            expanded[key] += 1
            return shapes_of(m, key, *rest)

        def table(m, key, readers, tables):
            shapes = table_of(m, key, readers, tables)
            built[key] = len(shapes)
            kept.update(tables)
            return shapes

        monkeypatch.setattr(ncpart, "_classical_shapes", shapes)
        monkeypatch.setattr(ncpart, "_gap_table", table)
        outputs = len(list(ncpart._nc_blocks(p, 10**7)))
        assert set(expanded.values()) == {1}, triple
        assert set(kept) == {key for key, k in readers.items() if k > 1}, triple
        held, steps = sum(built.values()), plan_steps(*triple)
        assert len(list(ncpart._nc_blocks(p, outputs + held + steps))) == outputs
        with pytest.raises(ResourceLimitError, match=f"predicted {outputs} partitions, {held} table "):
            list(ncpart._nc_blocks(p, outputs + held + steps - 1))

    def test_cap_counts_what_is_built(self, capsys):
        # At (2,7,3) the old guard predicted the 7,752 classical shapes of
        # t = 1; the stream builds 1,428 partitions and 788 table shapes
        # after a plan of at most 1,344 steps.
        argv = ["count", "--m", "2", "--n", "7", "--t", "3", "--by", "total", "--max-objects"]
        for cap in (3560, 7751):
            assert cli.main(argv + [str(cap)]) == 0
            assert '"brute":"1428"' in capsys.readouterr().out
        assert cli.main(argv + ["3559"]) == 2
        assert capsys.readouterr().err == (
            "error: predicted 1428 partitions, 788 table shapes and 1344 plan steps"
            " for Params(m=2, n=7, t=3), more than the cap 3559\n"
        )

    @pytest.mark.parametrize("triple", [(1, 300, 1), (1, 1000, 1000)])
    def test_large_triples_are_refused_before_any_plan(self, capsys, triple):
        # (1,1000,1000) has one partition, but its plan would visit about
        # 1.7e8 pairs over 1,000 nested runs; the closed bound refuses both
        # triples under the default cap without making a plan.
        m, n, t = triple
        argv = ["count", "--m", str(m), "--n", str(n), "--t", str(t), "--by", "total"]
        with mock.patch.object(ncpart, "_gap_plan", side_effect=AssertionError("planned")):
            assert cli.main(argv) == 2
        steps = plan_steps(*triple)
        assert capsys.readouterr().err == (
            f"error: planning {Params(*triple)} takes up to {steps} steps, more than the cap 10000000\n"
        )

    @pytest.mark.parametrize("t, shape", [(3, ((1, 3), (2,))), (2, ((1, 2), (3,)))])
    def test_t_partition_filter_is_a_check(self, monkeypatch, t, shape):
        # The stream keeps 1..t apart at the source; a shape that does not
        # is an InvariantViolation, not a skipped candidate.
        monkeypatch.setattr(ncpart, "_classical_shapes", lambda *args: iter([shape]))
        with pytest.raises(InvariantViolation, match=f"puts two of 1..{t} in one block"):
            enumerate_nc(Params(1, 3, t))


# Broken streams, each ending in a shape that breaks one clause of the
# generator's exact output check, on the ground set {1, 2, 3}; the last
# three break it only through blocks whose verdicts the cache already holds.
BROKEN_SHAPES = {
    "repeated element": [((1, 2), (2,))],
    "missing element": [((1, 2),)],
    "element above mn": [((1, 2, 4),)],
    "descending block": [((1, 3, 2),)],
    "blocks out of minimum order": [((2, 3), (1,))],
    "empty block": [((1, 2, 3), ())],
    "cached blocks out of minimum order": [((1, 2), (3,)), ((3,), (1, 2))],
    "cached blocks missing an element": [((1, 2), (3,)), ((1, 2),)],
    "cached blocks overlapping": [((1, 2), (3,)), ((1,), (2, 3)), ((1, 2), (2, 3))],
}


@pytest.mark.parametrize("name", sorted(BROKEN_SHAPES))
def test_shape_check_rejects(monkeypatch, name):
    # The internal call is positional, so the stand-in takes *args.
    monkeypatch.setattr(ncpart, "_classical_shapes", lambda *args: iter(BROKEN_SHAPES[name]))
    with pytest.raises(InvariantViolation):
        enumerate_nc(Params(1, 3, 1))
    with pytest.raises(InvariantViolation):
        census(Params(1, 3, 1), "total")
    # The point-by-point oracle agrees: it passes every shape before the
    # last and rejects the last.
    *good, bad = BROKEN_SHAPES[name]
    for blocks in good:
        oracles._check_shape(blocks, 3)
    with pytest.raises(InvariantViolation):
        oracles._check_shape(bad, 3)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=5), max_size=4).map(tuple), max_size=4))
def test_shape_check_agrees_with_the_oracle(blocks):
    # Arbitrary block tuples over a slightly wider range than {1..4}: the
    # per-block verdicts and the point-by-point oracle accept the same ones.
    shape = tuple(blocks)
    try:
        oracles._check_shape(shape, 4)
    except InvariantViolation:
        expected = False
    else:
        expected = True
    with mock.patch.object(ncpart, "_classical_shapes", lambda *args: iter([shape])):
        try:
            got = list(ncpart._nc_blocks(Params(1, 4, 1), 10**6)) == [shape]
        except InvariantViolation:
            got = False
    assert got == expected, shape
