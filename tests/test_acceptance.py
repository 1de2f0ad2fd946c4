"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is exact (zero tolerance).
"""

import functools
import time

import oracles
from nclab.closedform import (
    chain_count_with_profile,
    count_by_profile,
    count_by_rank,
    max_chains_formula,
    multichain_count_formula,
    profiles,
    total_count,
    zeta_formula,
)
from nclab import cli
from nclab.dyckmodel import DyckPath, h_via_paths, theta
from nclab.ncpart import DEFAULT_MAX_OBJECTS, SetPartition, block_profile, enumerate_nc, rank_of
from nclab.nonnest import TFilter, enumerate_nn, h_tilde, nn_poset
from nclab.params import Params
from nclab.polyalg import (
    f_triangle_closed,
    h_triangle_closed,
    m_triangle_brute,
    m_triangle_closed,
)
from nclab.posetcore import build_refinement_poset


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} [{description}]: FAIL")
                raise
            print(f"criterion {number:2d} [{description}]: PASS ({time.time() - start:.1f}s)")

        return wrapper

    return decorate


def triples(max_product, ms=None, max_n=None):
    out = []
    for m in ms or range(1, max_product + 1):
        for n in range(1, max_product // m + 1):
            if max_n is not None and n > max_n:
                continue
            for t in range(1, n + 1):
                out.append(Params(m, n, t))
    return out


def suite_rows(suite, expected):
    """(p, row) over the default range of `verify --suite <suite>`, which must be `expected`.

    The rows come from the suite's own row function, the one the CLI runs.
    """
    params = cli._parse_range(cli._SUITES[suite][0])
    assert params == expected, suite
    rows = cli._suite_rows(suite, params, "paper", DEFAULT_MAX_OBJECTS)
    assert [(row["m"], row["n"], row["t"]) for row in rows] == [(p.m, p.n, p.t) for p in params]
    return list(zip(params, rows))


def compositions(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    return [
        (first,) + rest
        for first in range(total + 1)
        for rest in compositions(total - first, parts - 1)
    ]


@criterion(1, "cardinality formula vs enumeration, m<=3, mn<=10")
def test_criterion_1_cardinality():
    start = time.time()
    for p in triples(10, ms=(1, 2, 3)):
        assert len(enumerate_nc(p)) == total_count(p), p
    assert time.time() - start < 60


@criterion(2, "rank and profile censuses, mn<=8")
def test_criterion_2_censuses():
    for p in triples(8):
        parts = enumerate_nc(p)
        rank_census = {}
        profile_census = {}
        for part in parts:
            r = rank_of(part, p)
            rank_census[r] = rank_census.get(r, 0) + 1
            key = block_profile(part, p).counts
            profile_census[key] = profile_census.get(key, 0) + 1
        for s in range(p.max_rank + 1):
            assert count_by_rank(p, s) == rank_census.get(s, 0), (p, s)
        assert set(profile_census) <= set(profiles(p.n)), p
        for b in profiles(p.n):
            assert count_by_profile(p, b) == profile_census.get(b, 0), (p, b)


@criterion(3, "chain counting: rank-vector formula, maximal chains, zeta")
def test_criterion_3_chain_counting():
    for p in triples(8):
        poset = build_refinement_poset(p)
        for l in (1, 2, 3):
            for s in compositions(p.max_rank, l + 1):
                targets = []
                acc = 0
                for si in s[:-1]:
                    acc += si
                    targets.append(acc)
                assert multichain_count_formula(p, l, s) == poset.count_rank_multichains(
                    targets
                ), (p, l, s)
        if 1 <= p.max_rank <= 4:
            # The closed product equals the count of saturated chains through
            # ranks 1..n-t (its derivation); the structural maximal-chain DP
            # additionally matches it whenever the poset has a unique minimum,
            # and is itself re-validated through the rank-vector formula.
            formula = max_chains_formula(p)
            upper = tuple(range(1, p.max_rank + 1))
            assert formula == poset.count_rank_multichains(upper), p
            dp_value = poset.count_rank_multichains(range(p.max_rank + 1))
            full = (0,) + (1,) * p.max_rank + (0,)
            assert dp_value == multichain_count_formula(p, p.max_rank + 1, full), p
            if count_by_rank(p, 0) == 1:
                assert formula == dp_value, p
        for l in (1, 2, 3, 4):
            assert zeta_formula(p, l) == oracles.zeta_by_down(poset, l), (p, l)


@criterion(4, "profiled chain formula vs brute force, l=2, mn<=8")
def test_criterion_4_profiled_chains():
    for p in triples(8):
        poset = build_refinement_poset(p)
        profiles_of = [block_profile(SetPartition(blocks), p).counts for blocks in poset.elements]
        buckets = {}
        for b in range(len(poset)):
            for a in poset.down(b):
                key = (profiles_of[a], poset.ranks[a], poset.ranks[b])
                buckets[key] = buckets.get(key, 0) + 1
        for s in compositions(p.max_rank, 3):
            for b in profiles(p.n):
                expected = buckets.get((b, s[0], s[0] + s[1]), 0)
                assert chain_count_with_profile(p, 2, s, b) == expected, (p, s, b)


@criterion(5, "Moebius rank triangle: brute force equals closed form, mn<=8")
def test_criterion_5_m_triangle():
    # The rows of `verify --suite m-triangle`, outside its default range.
    params = triples(8)
    for p, row in zip(params, cli._suite_rows("m-triangle", params, "paper", DEFAULT_MAX_OBJECTS)):
        assert (row["m"], row["n"], row["t"]) == (p.m, p.n, p.t) and row["pass"], p
    assert m_triangle_brute(Params(1, 3, 1)).coefficient(0, 2) == 2
    assert m_triangle_closed(Params(1, 3, 1)).coefficient(0, 2) == 2


@criterion(6, "six substitution identities and positivity, m<=3, n<=6")
def test_criterion_6_identities():
    start = time.time()
    for p, row in suite_rows("identities", triples(18, ms=(1, 2, 3), max_n=6)):
        assert row["pass"], row
        assert all(c > 0 for c in h_triangle_closed(p).terms().values()), p
        assert all(c > 0 for c in f_triangle_closed(p).terms().values()), p
    assert time.time() - start < 30


GOLDEN_H_232 = '{"terms":[{"x":0,"y":0,"c":"3"},{"x":1,"y":0,"c":"1"},{"x":1,"y":1,"c":"1"}]}'
GOLDEN_HTILDE_142 = (
    '{"terms":[{"x":0,"y":0,"c":"1"},{"x":1,"y":0,"c":"3"},{"x":1,"y":1,"c":"2"},'
    '{"x":2,"y":0,"c":"1"},{"x":2,"y":1,"c":"1"},{"x":2,"y":2,"c":"1"}]}'
)


@criterion(7, "golden values: polynomials, chain counts, weight signature")
def test_criterion_7_golden_values():
    assert h_triangle_closed(Params(2, 3, 2)).to_json() == GOLDEN_H_232
    assert h_tilde(Params(1, 4, 2)).to_json() == GOLDEN_HTILDE_142
    assert len(enumerate_nn(Params(2, 3, 2), variant="paper")) == 5
    assert len(enumerate_nn(Params(2, 3, 2), variant="adapted")) == 6
    big = SetPartition([{1, 6, 7, 8}, {2, 9, 12, 13}, {3, 14}, {4, 5}, {10, 11}])
    assert block_profile(big, Params(2, 7, 3)).weight_signature() == {1: 3, 2: 2}


@criterion(8, "chain-count evidence for m in {2,3}, n<=5 (findings reported)")
def test_criterion_8_conjecture_count_evidence():
    rows = dict(suite_rows("conj-count", triples(15, ms=(2, 3), max_n=5)))
    for p, row in rows.items():
        if not row["pass"]:
            print(
                f"FINDING: chain count mismatch at (m={p.m}, n={p.n}, t={p.t}): "
                f"enumerated {row['enumerated']}, formula {row['formula']}"
            )
    attested = rows[Params(2, 3, 2)]
    assert attested["pass"], attested
    assert attested["enumerated"] == "5"


# Golden 9-node picture at (1, 4, 2): filter -> (path, floor-label edges).
FIGURE_NODES = {
    frozenset(): "UUUUDDDD",
    frozenset({(1, 4)}): "UUUDUDDD",
    frozenset({(1, 3), (1, 4)}): "UUDUUDDD",
    frozenset({(1, 4), (2, 4)}): "UUUDDUDD",
    frozenset({(1, 3), (1, 4), (2, 4)}): "UUDUDUDD",
    frozenset({(1, 4), (2, 4), (3, 4)}): "UUUDDDUD",
    frozenset({(1, 3), (1, 4), (2, 3), (2, 4)}): "UUDDUUDD",
    frozenset({(1, 3), (1, 4), (2, 4), (3, 4)}): "UUDUDDUD",
    frozenset({(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}): "UUDDUDUD",
}
FIGURE_EDGES = {
    (frozenset(), frozenset({(1, 4)})): (1, 4),
    (frozenset({(1, 4)}), frozenset({(1, 3), (1, 4)})): (1, 3),
    (frozenset({(1, 4)}), frozenset({(1, 4), (2, 4)})): (2, 4),
    (frozenset({(1, 3), (1, 4)}), frozenset({(1, 3), (1, 4), (2, 4)})): (2, 4),
    (frozenset({(1, 4), (2, 4)}), frozenset({(1, 3), (1, 4), (2, 4)})): (1, 3),
    (frozenset({(1, 4), (2, 4)}), frozenset({(1, 4), (2, 4), (3, 4)})): (3, 4),
    (
        frozenset({(1, 3), (1, 4), (2, 4)}),
        frozenset({(1, 3), (1, 4), (2, 3), (2, 4)}),
    ): (2, 3),
    (
        frozenset({(1, 3), (1, 4), (2, 4)}),
        frozenset({(1, 3), (1, 4), (2, 4), (3, 4)}),
    ): (3, 4),
    (
        frozenset({(1, 4), (2, 4), (3, 4)}),
        frozenset({(1, 3), (1, 4), (2, 4), (3, 4)}),
    ): (1, 3),
    (
        frozenset({(1, 3), (1, 4), (2, 3), (2, 4)}),
        frozenset({(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}),
    ): (3, 4),
    (
        frozenset({(1, 3), (1, 4), (2, 4), (3, 4)}),
        frozenset({(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}),
    ): (2, 3),
}


@criterion(9, "path model: three polynomials agree, bijection, golden poset")
def test_criterion_9_path_model():
    # conj-h checks h_tilde against the closed H-triangle, so h_via_paths meets both.
    m1 = triples(7, ms=(1,))
    for suite in ("conj-h", "bijection"):
        for p, row in suite_rows(suite, m1):
            assert row["pass"], (suite, row)
    for p in m1:
        assert h_via_paths(p.n, p.t) == h_triangle_closed(p), p

    # Golden 9-node poset with its floor labels.
    decorated = nn_poset(Params(1, 4, 2))
    poset = decorated.poset
    assert len(poset) == 9
    node_filters = [chain.filters[0].pairs for chain in poset.elements]
    assert set(node_filters) == set(FIGURE_NODES)
    for idx, pairs in enumerate(node_filters):
        assert theta(TFilter(4, 2, pairs)) == DyckPath(FIGURE_NODES[pairs])
    floor_map = dict(decorated.cover_floor)
    seen_edges = {}
    for (a, b), label in floor_map.items():
        assert len(label) == 1
        seen_edges[(node_filters[a], node_filters[b])] = next(iter(label))
    assert seen_edges == FIGURE_EDGES


@criterion(10, "cover structure: one component, one element, m<=3, n<=5")
def test_criterion_10_cover_structure():
    for p, row in suite_rows("lemma54", triples(15, ms=(1, 2, 3), max_n=5)):
        assert row["violations"] == 0 and row["pass"], row
