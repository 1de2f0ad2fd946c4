import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nclab import cli, nonnest
from nclab.closedform import total_count
from nclab.errors import DomainError, InvariantViolation, ParameterError, ResourceLimitError
from nclab.params import Params
from nclab.polyalg import ONE, BivariatePolynomial, X, Y
from nclab.nonnest import (
    VARIANTS,
    FilterChain,
    TFilter,
    _staircase_mask,
    _tfilter_masks,
    _universe,
    all_t_filters,
    certify_lemma54,
    enumerate_nn,
    h_tilde,
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
    """Setwise formal sum of two pair sets through the grid-mask product."""
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
    # Single pairs through the grid-mask product; an undefined sum adds nothing.
    def test_chaining(self):
        assert sum_pairs(3, {(1, 2)}, {(2, 3)}) == {(1, 3)}

    def test_undefined_cases(self):
        assert sum_pairs(3, {(1, 3)}, {(2, 3)}) == frozenset()
        assert sum_pairs(3, {(2, 3)}, {(2, 3)}) == frozenset()

    def test_not_symmetric(self):
        assert sum_pairs(3, {(1, 2)}, {(2, 3)}) == {(1, 3)}
        assert sum_pairs(3, {(2, 3)}, {(1, 2)}) == frozenset()

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
        # Subsets of the pairs: on the grid layout most bits stand for no pair.
        pairs = st.frozensets(st.sampled_from(_universe(n).pairs))
        first, second = data.draw(pairs), data.draw(pairs)
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


def generated(p, variant):
    return {tuple(f.pairs for f in c.filters) for c in enumerate_nn(p, variant=variant)}


class TestGeometric:
    # The closure test is tests/oracles.py::is_geometric_chain; the generator
    # must agree with it.
    def test_example_fails_paper_variant(self):
        bad = (frozenset({(1, 3)}), frozenset({(1, 3)}))
        assert not oracles.is_geometric_chain(bad, 3, 2, "paper")
        assert oracles.is_geometric_chain(bad, 3, 2, "adapted")
        assert bad not in generated(Params(2, 3, 2), "paper")
        assert bad in generated(Params(2, 3, 2), "adapted")

    def test_empty_chain_geometric(self):
        empty = (frozenset(), frozenset())
        for variant in VARIANTS:
            assert oracles.is_geometric_chain(empty, 3, 2, variant)
            assert empty in generated(Params(2, 3, 2), variant)

    def test_unknown_variant(self):
        p = Params(2, 3, 2)
        for entry in (enumerate_nn, certify_lemma54, h_tilde):
            with pytest.raises(ParameterError, match="variant must be one of"):
                entry(p, variant="other")

    def test_m1_vacuous(self):
        for n in range(1, 8):
            for t in range(1, n + 1):
                filters = all_t_filters(n, t)
                chains = enumerate_nn(Params(1, n, t))
                assert len(chains) == len(filters)
                for filt in filters:
                    assert oracles.is_geometric_chain((filt.pairs,), n, t, "paper")


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

    def test_matches_set_oracle(self):
        # The nested m-tuples of t-filters that the set-based oracle accepts.
        sizes = {(m, n) for m in range(1, 9) for n in range(1, 8 // m + 1)}
        sizes |= {(m, n) for m in range(1, 4) for n in range(1, 6)}
        for variant in VARIANTS:
            for m, n in sorted(sizes):
                for t in range(1, n + 1):
                    filters = [f.pairs for f in all_t_filters(n, t)]
                    expected = {
                        combo
                        for combo in product(filters, repeat=m)
                        if all(a <= b for a, b in zip(combo, combo[1:]))
                        and oracles.is_geometric_chain(combo, n, t, variant)
                    }
                    got = [
                        tuple(f.pairs for f in c.filters)
                        for c in enumerate_nn(Params(m, n, t), variant=variant)
                    ]
                    assert len(got) == len(expected), (variant, m, n, t)
                    assert set(got) == expected, (variant, m, n, t)


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
        lower_ends = {a for a, _ in decorated.poset.covers()}
        tops = [i for i in range(len(decorated.poset)) if i not in lower_ends]
        assert len(tops) == 1
        assert decorated.floors[tops[0]] == {(2, 3)}

    def test_cover_structure_small(self):
        for m in (1, 2, 3):
            for n in (2, 3, 4):
                for t in range(1, n + 1):
                    p = Params(m, n, t)
                    assert certify_lemma54(p) == (len(nn_poset(p).poset.covers()), ())


class TestHTilde:
    def test_golden_232(self):
        assert h_tilde(Params(2, 3, 2)) == X * Y + X + 3 * ONE

    def test_golden_142(self):
        expected = X**2 * Y**2 + X**2 * Y + X**2 + 2 * X * Y + 3 * X + ONE
        assert h_tilde(Params(1, 4, 2)) == expected

    def test_trivial(self):
        assert h_tilde(Params(2, 5, 5)) == ONE

    def test_value_at_one_one_is_count(self):
        for p in (Params(1, 5, 2), Params(2, 3, 1), Params(2, 4, 4), Params(3, 3, 2)):
            assert oracles.eval_exact(h_tilde(p), 1, 1) == len(enumerate_nn(p))

    def test_matches_floors_of_all_pairs_poset(self):
        # h_tilde and nn_poset both read floors off the certificate's covers;
        # TestCertificate compares nn_poset with the all-pairs oracle.
        for variant in VARIANTS:
            for m in range(1, 9):
                for n in range(1, 8 // m + 1):
                    for t in range(1, n + 1):
                        p = Params(m, n, t)
                        decorated = nn_poset(p, variant=variant)
                        stair = {(i, i + 1) for i in range(t, n)}
                        expected = {}
                        for floor in decorated.floors:
                            key = (len(floor), len(floor & stair))
                            expected[key] = expected.get(key, 0) + 1
                        assert h_tilde(p, variant=variant) == BivariatePolynomial(expected), (
                            variant,
                            p,
                        )

    def test_size_guard_on_every_entry(self):
        p = Params(2, 4, 1)
        for entry in (enumerate_nn, nn_poset, h_tilde, certify_lemma54):
            with pytest.raises(ResourceLimitError, match="predicted about 55 chains"):
                entry(p, max_objects=54)


class TestCertificate:
    def test_matches_all_pairs_oracle(self):
        for variant in VARIANTS:
            for m in range(1, 9):
                for n in range(1, 8 // m + 1):
                    for t in range(1, n + 1):
                        p = Params(m, n, t)
                        u = _universe(n)
                        raw = nonnest._generate_chains(m, n, t, variant)
                        elements, down, covers, cover_floor, floors, violations = (
                            oracles.floored_poset([tuple(map(u.pairs_of, c)) for c in raw])
                        )
                        decorated = nn_poset(p, variant=variant)
                        poset = decorated.poset
                        case = (variant, p)
                        assert [tuple(f.pairs for f in c.filters) for c in poset.elements] == (
                            elements
                        ), case
                        assert poset.ranks == tuple(sum(map(len, c)) for c in elements), case
                        poset.assert_graded()
                        assert [poset.down_mask(i) for i in range(len(poset))] == down, case
                        assert list(poset.covers()) == covers, case
                        assert decorated.cover_floor == cover_floor, case
                        assert decorated.floors == floors, case
                        assert violations == (), case
                        assert certify_lemma54(p, variant=variant) == (len(covers), ()), case

    # (m, n, chains (V_m, ..., V_1), the one violating cover's message)
    BROKEN = [
        (
            1,
            3,
            [((),), ({(1, 2), (1, 3)},)],
            'cover {"m":1,"filters":[[]]} -> {"m":1,"filters":[[[1,2],[1,3]]]} '
            "changes 1 components by 2 elements",
        ),
        (
            2,
            3,
            [((), ()), ({(1, 3)}, {(1, 3)}), ({(1, 3)}, {(1, 2), (1, 3)})],
            'cover {"m":2,"filters":[[],[]]} -> {"m":2,"filters":[[[1,3]],[[1,3]]]} '
            "changes 2 components by 2 elements",
        ),
    ]

    @pytest.mark.parametrize("m, n, chains, message", BROKEN, ids=["two-pairs", "two-components"])
    def test_reports_broken_covers(self, monkeypatch, capsys, m, n, chains, message):
        u = _universe(n)
        raw = tuple(tuple(u.mask_of(V) for V in chain) for chain in chains)
        monkeypatch.setattr(nonnest, "_generate_chains", lambda *args: raw)
        p = Params(m, n, 1)
        oracle = oracles.floored_poset(chains)
        assert oracle[5] == (message,)
        assert certify_lemma54(p) == (len(oracle[2]), (message,))
        refusal = re.escape("cover structure violations: " + message)
        with pytest.raises(InvariantViolation, match=refusal):
            nn_poset(p)
        with pytest.raises(InvariantViolation, match=refusal):
            h_tilde(p)
        assert cli.main(["verify", "--suite", "conj-h", "--range", f"m={m},n={n},t=1"]) == 1
        assert cli.main(["verify", "--suite", "lemma54", "--range", f"m={m},n={n},t=1"]) == 1


class TestConjectureReport:
    def test_chain_counts_builds_no_filters(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the conj-count row built a TFilter")

        monkeypatch.setattr(nonnest, "_filter_from_mask", refuse)
        row = cli._conj_count_row(Params(2, 3, 2), "paper", 10)
        assert (row["enumerated"], row["formula"], row["pass"]) == ("5", "5", True)

    def test_generates_each_family_once(self, monkeypatch):
        calls = []
        generate = nonnest._generate_chains

        def counting(*args):
            calls.append(args)
            return generate(*args)

        monkeypatch.setattr(nonnest, "_generate_chains", counting)
        rows = verify_conjectures([Params(2, 4, 1), Params(3, 3, 2)])
        assert all(row["pass"] for row in rows)
        assert calls == [(2, 4, 1, "paper"), (3, 3, 2, "paper")]

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
