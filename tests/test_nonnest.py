import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nclab.closedform import total_count
from nclab.errors import DomainError, ParameterError
from nclab.params import Params
from nclab.polyalg import ONE, X, Y
from nclab.nonnest import (
    FilterChain,
    TFilter,
    _staircase_mask,
    _tfilter_masks,
    _universe,
    all_t_filters,
    enumerate_nn,
    formal_sum,
    h_tilde,
    is_geometric,
    nn_poset,
    pair_leq,
    triangular_pairs,
    verify_conjectures,
)


def tf(n, t, pairs):
    return TFilter(n, t, frozenset(pairs))


def chain(n, t, *filter_sets):
    return FilterChain(tuple(tf(n, t, pairs) for pairs in filter_sets))


def sum_pairs(n, first, second):
    """Setwise formal sum of two pair sets through the precomputed sum table."""
    u = _universe(n)
    return u.pairs_of(u.sum_masks(u.mask_of(first), u.mask_of(second)))


class TestPairPoset:
    def test_triangular_pairs(self):
        assert triangular_pairs(3) == ((1, 2), (1, 3), (2, 3))
        assert len(triangular_pairs(6)) == 15

    def test_pair_order(self):
        assert pair_leq((2, 3), (1, 4))
        assert pair_leq((2, 3), (2, 3))
        assert not pair_leq((1, 4), (2, 3))
        assert not pair_leq((1, 2), (2, 3))

    def test_staircase(self):
        assert _staircase_mask(4, 2) == _universe(4).mask_of({(2, 3), (3, 4)})
        assert _staircase_mask(3, 3) == 0


class TestFormalSum:
    def test_chaining(self):
        assert formal_sum((1, 2), (2, 3)) == (1, 3)

    def test_undefined_cases(self):
        assert formal_sum((1, 3), (2, 3)) is None
        assert formal_sum((2, 3), (2, 3)) is None

    def test_not_symmetric(self):
        assert formal_sum((1, 2), (2, 3)) == (1, 3)
        assert formal_sum((2, 3), (1, 2)) is None

    def test_setwise(self):
        assert sum_pairs(3, {(1, 2)}, {(2, 3)}) == {(1, 3)}
        assert sum_pairs(3, {(1, 2), (2, 3)}, set()) == frozenset()
        assert sum_pairs(3, {(1, 2), (2, 3)}, {(1, 2), (2, 3)}) == {(1, 3)}

    def test_sum_table_matches_oracle_on_filters(self):
        for n in range(1, 6):
            u = _universe(n)
            for t in range(1, n + 1):
                masks = _tfilter_masks(n, t)
                for first in masks:
                    for second in masks:
                        expected = oracles.setwise_sum(u.pairs_of(first), u.pairs_of(second))
                        assert u.pairs_of(u.sum_masks(first, second)) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 8), st.data())
    def test_sum_table_matches_oracle_random(self, n, data):
        u = _universe(n)
        first = u.pairs_of(data.draw(st.integers(0, u.full_mask)))
        second = u.pairs_of(data.draw(st.integers(0, u.full_mask)))
        assert sum_pairs(n, first, second) == oracles.setwise_sum(first, second)


class TestTFilter:
    def test_counts_are_ballot_numbers(self):
        # Filters of the full triangular poset match the classical count.
        expected = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132, 7: 429}
        for n, count in expected.items():
            assert len(all_t_filters(n, 1)) == count

    def test_t32_filters(self):
        filters = [sorted(f.pairs) for f in all_t_filters(3, 2)]
        assert filters == [[], [(1, 3)], [(1, 3), (2, 3)]]

    def test_up_closure_enforced(self):
        with pytest.raises(DomainError):
            tf(4, 1, {(2, 3)})  # missing (1, 3), (2, 4), (1, 4)

    def test_restricted_membership_enforced(self):
        with pytest.raises(DomainError):
            tf(3, 2, {(1, 2), (1, 3)})

    def test_min_elements(self):
        full = tf(4, 2, {(1, 3), (2, 3), (1, 4), (2, 4), (3, 4)})
        assert full.min_elements() == {(2, 3), (3, 4)}
        assert tf(4, 2, {(1, 3), (1, 4), (2, 4)}).min_elements() == {(1, 3), (2, 4)}
        assert tf(4, 2, set()).min_elements() == frozenset()

    def test_all_filters_up_closed(self):
        for n in range(1, 7):
            for t in range(1, n + 1):
                for filt in all_t_filters(n, t):
                    for pair in filt.pairs:
                        for other in triangular_pairs(n):
                            if pair_leq(pair, other):
                                assert other in filt.pairs


class TestGeometric:
    def test_example_fails_paper_variant(self):
        bad = chain(3, 2, {(1, 3)}, {(1, 3)})
        assert not is_geometric(bad, variant="paper")
        assert is_geometric(bad, variant="adapted")

    def test_empty_chain_geometric(self):
        empty = chain(3, 2, set(), set())
        assert is_geometric(empty, "paper")
        assert is_geometric(empty, "adapted")

    def test_unknown_variant(self):
        with pytest.raises(ParameterError):
            is_geometric(chain(3, 2, set(), set()), "other")

    def test_m1_vacuous(self):
        for n in range(1, 8):
            for t in range(1, n + 1):
                filters = all_t_filters(n, t)
                chains = enumerate_nn(Params(1, n, t))
                assert len(chains) == len(filters)
                for filt in filters:
                    assert is_geometric(FilterChain((filt,)))


class TestEnumerate:
    def test_variant_counts_232(self):
        assert len(enumerate_nn(Params(2, 3, 2), variant="paper")) == 5
        assert len(enumerate_nn(Params(2, 3, 2), variant="adapted")) == 6

    def test_family_232_listed(self):
        expected = {
            ((), ()),
            ((), ((1, 3),)),
            ((), ((1, 3), (2, 3))),
            (((1, 3),), ((1, 3), (2, 3))),
            (((1, 3), (2, 3)), ((1, 3), (2, 3))),
        }
        got = {
            tuple(f.sorted_pairs() for f in c.filters)
            for c in enumerate_nn(Params(2, 3, 2))
        }
        assert got == expected

    def test_trivial_single_chain(self):
        for m, n in ((1, 3), (2, 4), (3, 2)):
            chains = enumerate_nn(Params(m, n, n))
            assert len(chains) == 1
            assert all(not f.pairs for f in chains[0].filters)

    def test_nesting_validated(self):
        with pytest.raises(DomainError):
            chain(3, 2, {(1, 3)}, set())

    def test_deterministic(self):
        a = enumerate_nn(Params(2, 3, 1))
        b = enumerate_nn(Params(2, 3, 1))
        assert a == b
        assert list(a) == sorted(a, key=FilterChain.sort_key)


class TestFlooredPoset:
    def test_232_is_a_path(self):
        decorated = nn_poset(Params(2, 3, 2))
        poset = decorated.poset
        assert len(poset) == 5
        assert len(poset.covers()) == 4
        # bottom-to-top along the unique chain
        ordered = sorted(
            poset.covers(),
            key=lambda cover: sum(f.mask.bit_count() for f in poset.elements[cover[0]].filters),
        )
        floor_map = decorated.cover_floor_map()
        assert [sorted(floor_map[c]) for c in ordered] == [
            [],
            [],
            [(1, 3)],
            [(2, 3)],
        ]

    def test_bottom_has_empty_floors(self):
        decorated = nn_poset(Params(2, 3, 2))
        bottoms = [
            i
            for i in range(len(decorated.poset))
            if decorated.poset.down_mask(i) == 1 << i
        ]
        assert len(bottoms) == 1
        assert decorated.floors[bottoms[0]] == frozenset()

    def test_232_top_floor(self):
        decorated = nn_poset(Params(2, 3, 2))
        tops = [
            i
            for i in range(len(decorated.poset))
            if decorated.poset.up_mask(i) == 1 << i
        ]
        assert len(tops) == 1
        assert decorated.floors[tops[0]] == {(2, 3)}

    def test_cover_structure_small(self):
        for m in (1, 2, 3):
            for n in (2, 3, 4):
                for t in range(1, n + 1):
                    decorated = nn_poset(Params(m, n, t))
                    assert decorated.violations == ()


class TestHTilde:
    def test_golden_232(self):
        assert h_tilde(Params(2, 3, 2)) == X * Y + X + 3 * ONE

    def test_golden_142(self):
        expected = (
            X**2 * Y**2 + X**2 * Y + X**2 + (X * Y).scale(2) + X.scale(3) + ONE
        )
        assert h_tilde(Params(1, 4, 2)) == expected

    def test_trivial(self):
        assert h_tilde(Params(2, 5, 5)) == ONE

    def test_value_at_one_one_is_count(self):
        for p in (Params(1, 5, 2), Params(2, 3, 1), Params(2, 4, 4), Params(3, 3, 2)):
            assert h_tilde(p).eval_exact(1, 1) == len(enumerate_nn(p))


class TestConjectureReport:
    def test_332_row(self):
        rows = verify_conjectures([Params(3, 3, 2)])
        assert len(rows) == 1
        row = rows[0]
        assert row["count_formula"] == total_count(Params(3, 3, 2))
        assert row["count_ok"] and row["h_ok"] and row["pass"]

    def test_attested_case_232(self):
        row = verify_conjectures([Params(2, 3, 2)])[0]
        assert row["count_enumerated"] == 5
        assert row["pass"]

    def test_m1_rows_all_pass(self):
        rows = verify_conjectures(
            [Params(1, n, t) for n in range(1, 7) for t in range(1, n + 1)]
        )
        assert all(row["pass"] for row in rows)
