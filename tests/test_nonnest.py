import json
import re
from itertools import product
from operator import lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nclab import cli, nonnest
from nclab.closedform import total_count
from nclab.errors import DomainError, InvariantViolation, ParameterError, ResourceLimitError
from nclab.ncpart import DEFAULT_MAX_OBJECTS
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
    enumerate_nn,
    h_tilde,
    nn_poset,
    pair_leq,
    triangular_pairs,
    verify_conjectures,
)


def certified(p, variant="paper", max_objects=DEFAULT_MAX_OBJECTS):
    """(covers, violations) of the Lemma 5.4 certificate at one triple, off `chain_tallies`."""
    [(_, _, covers, violations, _)] = nonnest.chain_tallies(p.m, p.n, (p.t,), variant, max_objects)
    return covers, violations


def pair_key(chain):
    """Sorted pair tuples per component, V_m first: the order enumerate_nn must give."""
    return tuple(tuple(sorted(f.pairs)) for f in chain.filters)


def tf(n, t, pairs):
    return TFilter(n, t, frozenset(pairs))


def chain(n, t, *filter_sets):
    return FilterChain(tuple(tf(n, t, pairs) for pairs in filter_sets))


def keys_of(n, chains):
    """The sorted keys of chains given as one pair set per component, V_m first."""
    u, masks = _universe(n), _tfilter_masks(n, 1)
    width = len(masks).bit_length()
    return sorted(
        sum(masks.index(u.mask_of(V)) << p * width for p, V in enumerate(reversed(chain)))
        for chain in chains
    )


def sum_pairs(n, first, second):
    """Setwise formal sum of two pair sets through the oracle's grid-mask product."""
    u = _universe(n)
    return u.pairs_of(oracles.sum_masks(n, u.mask_of(first), u.mask_of(second)))


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
                        assert u.pairs_of(oracles.sum_masks(n, first, second)) == expected

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
        for entry in (enumerate_nn, certified, h_tilde):
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
            pair_key(c)
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
        assert list(a) == sorted(a, key=pair_key)

    def test_one_filter_object_per_distinct_mask(self):
        chains = enumerate_nn(Params(3, 4, 1))
        filters = [f for c in chains for f in c.filters]
        assert len({id(f) for f in filters}) == len({f.mask for f in filters}) < len(filters)

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


class TestGenerator:
    # _generate_chains against the closure-testing generator it replaced,
    # and the column-height lemma its bounds rest on.
    SIZES = sorted(
        {(m, n) for m in range(1, 11) for n in range(1, 10 // m + 1)} | {(2, 6), (3, 5)}
    )

    def test_matches_closure_oracle_in_order(self):
        # The keys ascend (the order lemma) and decode to the oracle's chains.
        for variant in VARIANTS:
            for m, n in self.SIZES:
                for t in range(1, n + 1):
                    keys = nonnest._generate_chains(m, n, t, variant, DEFAULT_MAX_OBJECTS)
                    assert all(map(lt, keys, keys[1:])), (variant, m, n, t)
                    got = tuple(nonnest._chain_masks(m, n, key) for key in keys)
                    assert got == oracles.chains_by_closure(m, n, t, variant), (variant, m, n, t)
                    # Every component is the filter table's own int, not a copy.
                    shared = {id(f) for f in _tfilter_masks(n, t)}
                    assert all(id(V) in shared for c in got for V in c), (variant, m, n, t)

    def test_height_lemma(self):
        # For every triple of t-filters (A, B, C): the height tests agree with
        # the mask tests, for the sum and for the complement condition.
        for n in range(1, 6):
            u = _universe(n)
            for t in range(1, n + 1):
                masks = _tfilter_masks(n, t)
                heights = nonnest._height_tables(n, t, "paper")[0]
                rebuilt = [
                    sum(1 << (i * (n + 1) + l) for l in range(n + 1) for i in range(1, h[l] + 1))
                    for h in heights
                ]
                assert rebuilt == list(masks)
                for variant, ambient in (
                    ("paper", u.full_mask),
                    ("adapted", nonnest._restricted_mask(n, t)),
                ):
                    columns = [x for x in range(1, n + 1) if variant == "paper" or x > t]
                    for a, A in zip(masks, heights):
                        for b, B in zip(masks, heights):
                            total = oracles.sum_masks(n, a, b)
                            spill = oracles.sum_masks(n, ambient & ~a, ambient & ~b)
                            for c, C in zip(masks, heights):
                                case = (variant, n, t, a, b, c)
                                inside = all(A[B[l]] <= C[l] for l in range(1, n + 1))
                                assert inside == (not total & ~c), case
                                misses = all(
                                    A[x] >= min(x - 1, C[l])
                                    for l in range(1, n + 1)
                                    for x in columns
                                    if B[l] < x < l
                                )
                                assert misses == (not spill & c), case


class TestOrderIdeal:
    # The paper t-chains as the t0-chains whose V_1 is a t-filter, which
    # lets one family serve every t of a group (nonnest._passes).
    def test_last_t_is_the_largest_t_the_filter_fits(self):
        for n in range(1, 9):
            last, ones = nonnest._last_ts(n)
            assert len(last) == len(_tfilter_masks(n, 1))
            assert ones == (1 << len(last).bit_length()) - 1
            for mask, tau in zip(_tfilter_masks(n, 1), last):
                fits = [t for t in range(1, n + 1) if not mask & ~nonnest._restricted_mask(n, t)]
                assert tau == max(fits), (n, mask)

    def test_t_chains_are_the_t0_chains_that_fit_in_order(self):
        for m in range(1, 13):
            for n in range(1, 12 // m + 1):
                families = {
                    t: nonnest._generate_chains(m, n, t, "paper", DEFAULT_MAX_OBJECTS)
                    for t in range(1, n + 1)
                }
                top, ones = nonnest._last_ts(n)
                for t0, family in families.items():
                    last = [top[key & ones] for key in family]
                    assert min(last, default=t0) >= t0, (m, n, t0)
                    for t in range(t0, n + 1):
                        kept = [key for key, tau in zip(family, last) if tau >= t]
                        assert kept == families[t], (m, n, t0, t)

    def test_lemma_fails_for_the_adapted_variant(self):
        # The adapted ambient set changes with t, so its t = 2 chains are no
        # sub-family of its t = 1 chains: one pass per t.
        family = nonnest._generate_chains(2, 4, 1, "adapted", DEFAULT_MAX_OBJECTS)
        last, ones = nonnest._last_ts(4)
        kept = [key for key in family if last[key & ones] >= 2]
        got = nonnest._generate_chains(2, 4, 2, "adapted", DEFAULT_MAX_OBJECTS)
        assert (len(got), len(kept)) == (31, 25)
        assert set(kept) < set(got)

    def test_t_tuples_share_the_one_tuple_ints(self):
        # The prefix lemma: a t-filter's position is its 1-filter position.
        for n in range(1, 11):
            masks = _tfilter_masks(n, 1)
            ones = {id(mask) for mask in masks}
            for t in range(2, n + 1):
                assert _tfilter_masks(n, t) == masks[: len(_tfilter_masks(n, t))], (n, t)
                assert all(id(mask) in ones for mask in _tfilter_masks(n, t)), (n, t)

    def test_grouped_tallies_equal_one_t_tallies(self):
        # Counts, cover counts, violations and floor coefficients, with t0 = 1
        # and 2; tests/test_cli.py compares the suite rows at every mn <= 10.
        for variant in VARIANTS:
            for m in range(1, 9):
                for n in range(1, 8 // m + 1):
                    one_t = {
                        t: next(nonnest.chain_tallies(m, n, (t,), variant))
                        for t in range(1, n + 1)
                    }
                    for t0 in range(1, min(n, 2) + 1):
                        ts = tuple(range(t0, n + 1))
                        grouped = list(nonnest.chain_tallies(m, n, ts, variant))
                        assert grouped == [one_t[t] for t in ts], (variant, m, n, t0)
                        counts = list(nonnest.chain_counts(m, n, ts, variant))
                        assert counts == [one_t[t][:2] for t in ts], (variant, m, n, t0)

    def test_one_generation_per_paper_group(self, monkeypatch):
        calls = []
        generate = nonnest._generate_chains

        def counting(*args):
            calls.append(args[:4])
            return generate(*args)

        monkeypatch.setattr(nonnest, "_generate_chains", counting)
        for variant in VARIANTS:
            list(nonnest.h_tildes(2, 4, (2, 3, 4), variant))
        assert calls == [(2, 4, 2, "paper")] + [(2, 4, t, "adapted") for t in (2, 3, 4)]


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
        floor_map = dict(decorated.cover_floor)
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
                    assert certified(p) == (len(nn_poset(p).poset.covers()), ())


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
        for entry in (enumerate_nn, nn_poset, h_tilde, certified):
            with pytest.raises(ResourceLimitError, match="predicted about 55 chains"):
                entry(p, max_objects=54)
            # The adapted generator holds 35 chains at (3, 5, 4); the closed count is 13.
            held = r"^adapted chains for Params\(m=3, n=5, t=4\) reached 21, more than the cap 20$"
            with pytest.raises(ResourceLimitError, match=held):
                entry(Params(3, 5, 4), variant="adapted", max_objects=20)


class TestCertificate:
    def test_matches_all_pairs_oracle(self):
        for variant in VARIANTS:
            for m in range(1, 9):
                for n in range(1, 8 // m + 1):
                    for t in range(1, n + 1):
                        p = Params(m, n, t)
                        u = _universe(n)
                        raw = nonnest._generate_chains(m, n, t, variant, DEFAULT_MAX_OBJECTS)
                        chains = [map(u.pairs_of, nonnest._chain_masks(m, n, key)) for key in raw]
                        elements, down, covers, cover_floor, floors, violations = (
                            oracles.floored_poset(chains)
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
                        assert certified(p, variant=variant) == (len(covers), ()), case

    # Every (m, n) with mn <= 10, and (2, 6) and (3, 5).
    ORACLE_CASES = [(m, n) for m in range(1, 11) for n in range(1, 10 // m + 1)] + [(2, 6), (3, 5)]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_down_set_oracle(self, variant):
        # The prefix-bitset certificate against the |F|-bit down-set one it
        # replaced, stream for stream on the generator's keys; and nn_poset's
        # covers and floors against the oracle's, moved into `enumerate`
        # order (the chains sorted by their components' sorted pairs).
        for m, n in self.ORACLE_CASES:
            u = _universe(n)
            for t in range(1, n + 1):
                p = Params(m, n, t)
                keys = nonnest._generate_chains(m, n, t, variant, DEFAULT_MAX_OBJECTS)
                family = [nonnest._chain_masks(m, n, key) for key in keys]
                expected = list(oracles.certify_by_down_sets(n, family))
                assert list(nonnest._certify_covers(m, n, keys)) == expected, (variant, p)
                pairs = [[sorted(u.pairs_of(V)) for V in masks] for masks in family]
                where = {c: i for i, c in enumerate(sorted(range(len(family)), key=pairs.__getitem__))}
                labelled, floors = [], [None] * len(family)
                for b, covers, _ in expected:
                    floor = 0
                    for a, extra in covers:
                        labelled.append(((where[a], where[b]), u.pairs_of(extra & u.full_mask)))
                        floor |= extra
                    floors[where[b]] = u.pairs_of(floor & u.full_mask)
                decorated = nn_poset(p, variant=variant)
                assert decorated.cover_floor == tuple(sorted(labelled)), (variant, p)
                assert decorated.floors == tuple(floors), (variant, p)

    def test_filter_order_below_sets(self):
        for n in range(1, 7):
            masks = _tfilter_masks(n, 1)
            lower, below = nonnest._filter_order(n)
            for f, mask in enumerate(masks):
                assert below[f] == sum(1 << g for g, other in enumerate(masks) if not other & ~mask), (n, f)
                minimal = _universe(n).minimal(mask)
                assert [(k, masks[g]) for k, g in lower[f]] == [
                    (k, mask ^ 1 << k) for k in range(mask.bit_length()) if minimal >> k & 1
                ]

    # T_3 has five filters, so a key field takes three bits; position 0 is
    # the empty filter and 1 is {(1, 3)}.  The second key of "not-a-filter"
    # has V_1 at position 6, that of "not-a-filter-above" a third field,
    # and that of "not-nested" is ({(1, 3)}, {}), with V_2 outside V_1.
    @pytest.mark.parametrize(
        "keys, message",
        [
            ([1, 0], "the chain keys are not strictly ascending"),
            ([0, 6], "chain key 6 is not a nested chain of filters"),
            ([0, 1 << 6], "chain key 64 is not a nested chain of filters"),
            ([0, 1 << 3], "chain key 8 is not a nested chain of filters"),
        ],
        ids=["not-ascending", "not-a-filter", "not-a-filter-above", "not-nested"],
    )
    def test_refuses_a_member_that_is_not_a_nested_chain_of_filters(self, keys, message):
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            list(nonnest._certify_covers(2, 3, keys))

    # (m, n, chains (V_m, ..., V_1), the one violating cover's message).
    # In the third, b = the second chain has no removal in the family, so
    # its box holds both other chains; only the larger one is a cover.
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
        (
            3,
            3,
            [((), (), ()), ((), {(1, 3)}, {(1, 2), (1, 3)}), ((), (), {(1, 3)})],
            'cover {"m":3,"filters":[[],[],[[1,3]]]} -> {"m":3,"filters":[[],[[1,3]],[[1,2],[1,3]]]} '
            "changes 2 components by 2 elements",
        ),
    ]
    BROKEN_IDS = ["two-pairs", "two-components", "m3-box-of-two"]

    @pytest.mark.parametrize("m, n, chains, message", BROKEN, ids=BROKEN_IDS)
    def test_certificate_and_oracle_report_broken_covers(self, m, n, chains, message):
        raw = keys_of(n, chains)
        stream = list(nonnest._certify_covers(m, n, raw))
        family = [nonnest._chain_masks(m, n, key) for key in raw]
        assert stream == list(oracles.certify_by_down_sets(n, family))
        assert [message for _, _, found in stream for message in found.values()] == [message]

    @pytest.mark.parametrize("m, n, chains, message", BROKEN, ids=BROKEN_IDS)
    def test_reports_broken_covers(self, monkeypatch, capsys, m, n, chains, message):
        raw = keys_of(n, chains)
        monkeypatch.setattr(nonnest, "_generate_chains", lambda *args: raw)
        p = Params(m, n, 1)
        oracle = oracles.floored_poset(chains)
        assert oracle[5] == (message,)
        assert certified(p) == (len(oracle[2]), (message,))
        refusal = re.escape("cover structure violations: " + message)
        with pytest.raises(InvariantViolation, match=refusal):
            nn_poset(p)
        with pytest.raises(InvariantViolation, match=refusal):
            h_tilde(p)
        assert cli.main(["verify", "--suite", "conj-h", "--range", f"m={m},n={n},t=1"]) == 1
        assert cli.main(["verify", "--suite", "lemma54", "--range", f"m={m},n={n},t=1"]) == 1
        assert cli.main(["sweep", "--do", "triangle", "--which", "htilde", "--range", f"m={m},n={n},t=1"]) == 1

    @pytest.mark.parametrize("m, n, chains, message", BROKEN, ids=BROKEN_IDS)
    def test_broken_covers_stop_a_t_range_as_they_stop_t0(
        self, monkeypatch, capsys, m, n, chains, message
    ):
        # One family serves every t of the group; the refusal is still t0's, word for word.
        raw = keys_of(n, chains)
        monkeypatch.setattr(nonnest, "_generate_chains", lambda *args: raw)
        refusal = f"invariant failure: cover structure violations: {message}\n"
        for t_range in ("t=1", "t=1..n"):
            argv = ["verify", "--suite", "conj-h", "--range", f"m={m},n={n},{t_range}"]
            assert cli.main(argv) == 1
            assert capsys.readouterr() == ("", refusal), t_range
        # lemma54 reports it at each t the broken chain (the second) fits:
        # up to the lowest column of a pair (1, l) of its V_1, less one.
        fits = min(l for i, l in chains[1][-1] if i == 1) - 1
        assert cli.main(["verify", "--suite", "lemma54", "--range", f"m={m},n={n},t=1..n"]) == 1
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["violations"] for row in rows] == [int(t <= fits) for t in range(1, n + 1)]


class TestConjectureReport:
    def test_chain_counts_builds_no_filters(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the conj-count row built a TFilter")

        monkeypatch.setattr(nonnest, "_filter_from_mask", refuse)
        [row] = cli._conj_count_row(2, 3, (2,), "paper", 10)
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
        cap = DEFAULT_MAX_OBJECTS
        assert calls == [(2, 4, 1, "paper", cap), (3, 3, 2, "paper", cap)]

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
