from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from nclab import cli, polyalg
from nclab.closedform import total_count
from nclab.errors import InvariantViolation, ParameterError
from nclab.params import Params
from nclab.polyalg import (
    ONE,
    X,
    Y,
    BivariatePolynomial,
    RationalExpr,
    f_triangle_closed,
    h_triangle_closed,
    m_triangle_brute,
    m_triangle_closed,
    substitute,
    verify_transformation_identities,
)
from nclab.posetcore import build_refinement_poset


def poly(terms):
    return BivariatePolynomial(terms)


@st.composite
def polynomials(draw, max_degree=4):
    """Up to five terms, exponents 0..max_degree, int coefficients in -9..9."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        key = (draw(st.integers(0, max_degree)), draw(st.integers(0, max_degree)))
        terms[key] = draw(st.integers(-9, 9))
    return BivariatePolynomial(terms)


@st.composite
def rational_exprs(draw):
    num = draw(polynomials(max_degree=2))
    den = draw(polynomials(max_degree=2).filter(bool))
    return RationalExpr(num, den)


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == X**2 - Y**2

    def test_multiplicative_identity(self):
        p = poly({(2, 1): 3, (0, 0): -1})
        assert p * ONE == p

    def test_binomial_square(self):
        base = ONE + X * (Y - ONE)
        expanded = ONE + 2 * (X * (Y - ONE)) + (X * (Y - ONE)) ** 2
        assert base**2 == expanded

    def test_zero_coefficients_dropped(self):
        assert poly({(1, 1): 0}).is_zero()
        assert (X - X).is_zero()

    def test_negative_power_rejected(self):
        # Bools are refused as exponents, as everywhere else in the class.
        for exponent in (-1, True, False, 2.0):
            with pytest.raises(ParameterError):
                X**exponent

    @settings(max_examples=60, deadline=None)
    @given(polynomials(), polynomials(), polynomials())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=40, deadline=None)
    @given(polynomials(), polynomials(), st.integers(1, 4), st.integers(1, 4))
    def test_eval_is_a_homomorphism(self, a, b, x0, y0):
        value = lambda f: oracles.eval_exact(f, x0, y0)
        assert value(a * b) == value(a) * value(b)
        assert value(a + b) == value(a) + value(b)


class TestEval:
    def test_m_triangle_at_one_one(self):
        assert oracles.eval_exact(m_triangle_closed(Params(1, 2, 1)), 1, 1) == 1

    def test_constant_term(self):
        p = poly({(0, 0): 7, (2, 1): 5})
        assert oracles.eval_exact(p, 0, 0) == 7

    def test_h_triangle_totals_census(self):
        assert oracles.eval_exact(h_triangle_closed(Params(2, 3, 2)), 1, 1) == 5

    def test_float_and_bool_points_rejected(self):
        assert oracles.eval_exact(X, Fraction(1, 10), 1) == Fraction(1, 10)
        for point in ((0.1, 1), (1, 0.5), (True, 1), (1, False)):
            with pytest.raises(TypeError):
                oracles.eval_exact(X, *point)


class TestJson:
    def test_golden_h_232(self):
        assert (
            h_triangle_closed(Params(2, 3, 2)).to_json()
            == '{"terms":[{"x":0,"y":0,"c":"3"},{"x":1,"y":0,"c":"1"},{"x":1,"y":1,"c":"1"}]}'
        )

    def test_round_trip(self):
        # The record lists every term once, with its coefficient as a decimal string.
        p = poly({(0, 1): -3, (2, 2): 4})
        terms = {(term["x"], term["y"]): int(term["c"]) for term in p.to_json_dict()["terms"]}
        assert BivariatePolynomial(terms) == p

    def test_non_integer_coefficients_rejected(self):
        for c in ("1/2", "0.5", 1.5, "x", "1"):
            with pytest.raises(ParameterError, match="coefficients must be integers"):
                BivariatePolynomial({(0, 0): c})

    def test_non_integer_exponents_rejected(self):
        # A truncated 1.5 would collide with x^1 and overwrite it.
        with pytest.raises(ParameterError, match="exponents must be integers >= 0, got 1.5"):
            BivariatePolynomial({(1.5, 0): 1, (1, 0): 2})
        for key in ((True, 0), (0, "1"), (Fraction(1), 0), (-1, 0), (0, -2)):
            with pytest.raises(ParameterError):
                BivariatePolynomial({key: 1})

    def test_repeated_term_rejected(self):
        # A dict of the pairs would keep the last repeat and return 2.
        for terms in ([((0, 0), 1), ((0, 0), 2)], [((1, 2), 0), ((1, 2), 3)]):
            with pytest.raises(ParameterError, match="given more than once"):
                BivariatePolynomial(terms)
        assert BivariatePolynomial([((0, 0), 1), ((1, 0), 2)]) == ONE + 2 * X


class TestMTriangle:
    def test_brute_two_chain(self):
        assert m_triangle_brute(Params(1, 2, 1)) == ONE - Y + X * Y

    def test_brute_single_element(self):
        assert m_triangle_brute(Params(1, 3, 3)) == ONE

    def test_closed_two_chain(self):
        assert m_triangle_closed(Params(1, 2, 1)) == ONE - Y + X * Y

    def test_closed_single_element(self):
        assert m_triangle_closed(Params(2, 4, 4)) == ONE

    def test_nc3_top_moebius_coefficient(self):
        assert m_triangle_brute(Params(1, 3, 1)).coefficient(0, 2) == 2
        assert m_triangle_closed(Params(1, 3, 1)).coefficient(0, 2) == 2

    def test_rank_solve_matches_moebius_sum(self):
        # The rank-wise solve against the per-element definition
        # sum over a <= b of mu(a, b) x^rk(a) y^rk(b), every family with mn <= 8.
        for m in range(1, 9):
            for n in range(1, 8 // m + 1):
                for t in range(1, n + 1):
                    p = Params(m, n, t)
                    poset = build_refinement_poset(p)
                    down = [poset.down_mask(i) for i in range(len(poset))]
                    coeffs = {}
                    for a in range(len(poset)):
                        for b, mu in oracles.moebius_row(down, a).items():
                            key = (poset.ranks[a], poset.ranks[b])
                            coeffs[key] = coeffs.get(key, 0) + mu
                    assert m_triangle_brute(p) == BivariatePolynomial(coeffs), (m, n, t)

    def test_brute_equals_closed_small(self):
        for m, n in ((1, 4), (1, 5), (2, 2), (2, 3), (3, 2)):
            for t in range(1, n + 1):
                p = Params(m, n, t)
                assert m_triangle_brute(p) == m_triangle_closed(p)

    def test_diagonal_is_rank_census(self):
        from nclab.closedform import count_by_rank

        for p in (Params(1, 5, 2), Params(2, 3, 1), Params(3, 2, 1)):
            closed = m_triangle_closed(p)
            for r in range(p.max_rank + 1):
                assert closed.coefficient(r, r) == count_by_rank(p, r)


class TestClosedIntegerArithmetic:
    def test_terms_equal_fraction_formulas(self):
        for m in range(1, 5):
            for n in range(1, 9):
                for t in range(1, n + 1):
                    p = Params(m, n, t)
                    assert m_triangle_closed(p).terms() == oracles.m_triangle_fraction(m, n, t), p
                    assert f_triangle_closed(p).terms() == oracles.f_triangle_fraction(m, n, t), p

    def test_non_integral_quotient_names_its_term(self, monkeypatch):
        # With every binomial 1, the (0, 0) numerators at (1, 2, 1) are 2 over 4 and 1 over 2.
        monkeypatch.setattr(polyalg, "binomial", lambda r, k: 1)
        message = r"non-integral coefficient 1/2 at \(0, 0\)"
        with pytest.raises(InvariantViolation, match="closed rank triangle: " + message):
            m_triangle_closed(Params(1, 2, 1))
        with pytest.raises(InvariantViolation, match="closed F-triangle: " + message):
            f_triangle_closed(Params(1, 2, 1))


class TestHFTriangles:
    def test_h_golden(self):
        assert h_triangle_closed(Params(2, 3, 2)) == X * Y + X + 3 * ONE
        assert h_triangle_closed(Params(1, 2, 1)) == X * Y + ONE
        assert h_triangle_closed(Params(1, 5, 5)) == ONE

    def test_f_golden(self):
        assert f_triangle_closed(Params(1, 2, 1)) == ONE + X + Y
        assert f_triangle_closed(Params(2, 3, 2)) == 4 * X + Y + 2 * ONE
        assert f_triangle_closed(Params(3, 4, 4)) == ONE

    def test_coefficients_nonnegative(self):
        for m in (1, 2, 3):
            for n in range(1, 7):
                for t in range(1, n + 1):
                    p = Params(m, n, t)
                    for poly_ in (h_triangle_closed(p), f_triangle_closed(p)):
                        assert all(c > 0 for c in poly_.terms().values())

    def test_h_at_one_one_is_total(self):
        for m in (1, 2, 3):
            for n in range(1, 8):
                for t in range(1, n + 1):
                    p = Params(m, n, t)
                    assert oracles.eval_exact(h_triangle_closed(p), 1, 1) == total_count(p)


class TestRationalExpr:
    def test_cross_multiplication_equality(self):
        half = RationalExpr(X, X + X)
        other = RationalExpr(Y, Y + Y)
        assert half.equals(other)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParameterError):
            RationalExpr(ONE, BivariatePolynomial.zero())

    def test_arithmetic(self):
        a = RationalExpr(ONE, X)
        b = RationalExpr(ONE, Y)
        assert (a * b).equals(RationalExpr(ONE, X * Y))
        assert (a + b).equals(RationalExpr(X + Y, X * Y))

    def test_substitute_simple(self):
        # (x + y) with x -> 1/x, y -> 1/y equals (x + y) / (xy)
        source = X + Y
        result = substitute(source, RationalExpr(ONE, X), RationalExpr(ONE, Y))
        assert result.equals(RationalExpr(X + Y, X * Y))

    @settings(max_examples=80, deadline=None)
    @given(
        polynomials(max_degree=3),
        rational_exprs(),
        rational_exprs(),
        st.one_of(st.none(), st.integers(0, 2)),
        small_rationals,
        small_rationals,
    )
    def test_substitute_matches_pointwise_evaluation(self, source, u, v, slack, x0, y0):
        value = lambda f: oracles.eval_exact(f, x0, y0)
        u_den, v_den = value(u.den), value(v.den)
        assume(u_den and v_den)
        bound = None if slack is None else max(source.max_exponents()) + slack
        result = substitute(source, u, v, degree_bound=bound)
        expected = oracles.eval_exact(source, value(u.num) / u_den, value(v.num) / v_den)
        assert value(result.num) / value(result.den) == expected

    def test_substitute_rejects_low_bound(self):
        with pytest.raises(ParameterError):
            substitute(X**3, RationalExpr(ONE, X), RationalExpr(ONE, Y), degree_bound=2)


class TestIntegerCoefficients:
    def test_triangles_hold_ints(self):
        for m in (1, 2, 3):
            for n in range(1, 6):
                for t in range(1, n + 1):
                    p = Params(m, n, t)
                    polys = [m_triangle_closed(p), h_triangle_closed(p), f_triangle_closed(p)]
                    if m * n <= 6:
                        polys.append(m_triangle_brute(p))
                    for poly_ in polys:
                        assert all(type(c) is int for c in poly_.terms().values())

    def test_substitute_on_integral_input_holds_ints(self):
        result = substitute(
            m_triangle_closed(Params(2, 4, 1)), RationalExpr(Y + ONE, Y - X), RationalExpr(Y - X, Y)
        )
        assert not result.num.is_zero()
        for side in (result.num, result.den):
            assert all(type(c) is int for c in side.terms().values())

    def test_only_int_coefficients_accepted(self):
        for c in (0.1, 2.0, Fraction(1, 2), Fraction(4, 2), True, "1"):
            with pytest.raises(ParameterError, match="coefficients must be integers"):
                poly({(0, 0): c})

    def test_non_int_scalars_raise_type_error(self):
        for op in (
            lambda: X - 0.5,
            lambda: 0.5 - X,
            lambda: X + 0.5,
            lambda: 0.5 + X,
            lambda: X * 0.5,
            lambda: 0.5 * X,
            lambda: X - Fraction(1, 2),
            lambda: Fraction(1, 2) - X,
            lambda: X + True,
        ):
            with pytest.raises(TypeError):
                op()

    def test_int_scalars(self):
        assert X - 1 == -(1 - X) == X + (-1)
        assert 3 * X == X * 3 == X + X + X
        assert type((X * 3 - 2).coefficient(1, 0)) is int

    def test_polynomial_never_equals_a_number(self):
        assert ONE != 1
        assert BivariatePolynomial.zero() != 0
        assert {1: "a"}.get(ONE) is None


class TestIdentities:
    def test_two_chain_all_pass(self):
        results, _ = verify_transformation_identities(Params(1, 2, 1))
        assert dict(results) == {
            "f_from_m": True,
            "f_from_h": True,
            "h_from_m": True,
            "h_from_f": True,
            "m_from_f": True,
            "m_from_h": True,
        }

    def test_known_case_232_all_pass(self):
        results, _ = verify_transformation_identities(Params(2, 3, 2))
        assert [ok for _, ok in results] == [True] * 6

    def test_trivial_case(self):
        results, alt_holds = verify_transformation_identities(Params(1, 4, 4))
        assert [ok for _, ok in results] == [True] * 6
        assert alt_holds  # zero exponent, both variants agree

    def test_alt_prefactor_fails_generically(self):
        assert not verify_transformation_identities(Params(1, 2, 1))[1]
        assert not verify_transformation_identities(Params(2, 3, 2))[1]

    def test_fast_path_equals_literal_oracle(self):
        triples = [Params(m, n, t) for m in (1, 2, 3) for n in range(1, 7) for t in range(1, n + 1)]
        triples += [Params(2, 10, t) for t in range(1, 11)] + [Params(4, 8, t) for t in range(1, 9)]
        for p in triples:
            assert oracles.identities_literal(p) == verify_transformation_identities(p), p

    @pytest.mark.parametrize("triangle", ["m", "f", "h"])
    def test_bumped_coefficient_fails_same_identities(self, monkeypatch, triangle):
        # +1 on one coefficient breaks the four identities that read that triangle.
        original = getattr(polyalg, f"{triangle}_triangle_closed")
        involved = {name for name, lhs, _, source, *_ in polyalg._IDENTITIES if triangle in (lhs, source)}
        for p in (Params(1, 2, 2), Params(1, 4, 1), Params(2, 3, 2), Params(3, 5, 2)):
            for pick in (min, max):

                def bumped(q):
                    terms = original(q).terms()
                    terms[pick(terms)] += 1
                    return BivariatePolynomial(terms)

                monkeypatch.setattr(polyalg, f"{triangle}_triangle_closed", bumped)
                results, alt_holds = verify_transformation_identities(p)
                assert oracles.identities_literal(p) == (results, alt_holds), (p, pick)
                assert {name for name, ok in results if not ok} == involved, (p, pick)

    def test_layout_bounds_the_literal_difference(self):
        # Besides the true lhs, a constant one (the right side sets the degree) and
        # one with a large high x-power (the left side sets degree and size).
        for p in (Params(1, 1, 1), Params(1, 5, 1), Params(2, 6, 3), Params(4, 7, 1), Params(3, 8, 8)):
            d = p.max_rank
            triangles = {"m": m_triangle_closed(p), "h": h_triangle_closed(p), "f": f_triangle_closed(p)}
            for name, lhs, base, source, u, v, alt_base in polyalg._IDENTITIES:
                bases = (base,) if alt_base is None else (base, alt_base)
                image = substitute(triangles[source], u, v, d)
                for left in (triangles[lhs], ONE, triangles[lhs] + 2**80 * X ** (d + 2)):
                    w, dx = polyalg._layout(left, bases, triangles[source], u, v, d)
                    for b in bases:
                        difference = left * image.den - b**d * image.num
                        largest = max(map(abs, difference.terms().values()), default=0)
                        assert largest < 2 ** (w - 1), (p, name, left)
                        assert difference.max_exponents()[0] <= dx, (p, name, left)

    def test_non_integral_closed_triangle_is_an_error_row(self, monkeypatch):
        # As in test_non_integral_quotient_names_its_term: the (0, 0) quotient at (1, 2, 1) is 1/2.
        monkeypatch.setattr(polyalg, "binomial", lambda r, k: 1)
        row = cli._identities_row(Params(1, 2, 1), "paper", 10)
        assert row["pass"] is False and "non-integral coefficient" in row["error"]
