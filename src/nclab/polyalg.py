"""Exact bivariate (Laurent-capable) polynomial algebra and the triangles.

Coefficients are exact rationals; exponents may go negative inside
intermediate computations, but every public triangle constructor returns an
honest polynomial with exponents in [0, n - t] and asserts integrality (and,
where promised, non-negativity) of all coefficients.  The substitution
identities are verified by clearing denominators symbolically: each identity
has a small fixed factor set, so equality of the cleared numerators is an
exact, proof-grade check rather than a sampling argument.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Dict, Tuple

from .closedform import binomial
from .errors import InvariantViolation, ParameterError
from .ncpart import DEFAULT_MAX_OBJECTS
from .params import Params
from .posetcore import build_refinement_poset


class BivariatePolynomial:
    """Sparse exact polynomial in two variables with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: Dict[Tuple[int, int], Fraction] = {}
        if terms:
            for (ex, ey), coeff in dict(terms).items():
                coeff = Fraction(coeff)
                if coeff:
                    data[(int(ex), int(ey))] = coeff
        self._terms = data

    @classmethod
    def zero(cls) -> "BivariatePolynomial":
        return cls()

    @classmethod
    def constant(cls, value) -> "BivariatePolynomial":
        return cls({(0, 0): Fraction(value)})

    @classmethod
    def monomial(cls, ex: int, ey: int, coeff=1) -> "BivariatePolynomial":
        return cls({(ex, ey): Fraction(coeff)})

    def terms(self) -> Dict[Tuple[int, int], Fraction]:
        return dict(self._terms)

    def coefficient(self, ex: int, ey: int) -> Fraction:
        return self._terms.get((ex, ey), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, BivariatePolynomial):
            return self._terms == other._terms
        if isinstance(other, Rational):
            return self._terms == BivariatePolynomial.constant(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other) -> "BivariatePolynomial":
        if isinstance(other, Rational):
            other = BivariatePolynomial.constant(other)
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        data = dict(self._terms)
        for key, coeff in other._terms.items():
            new = data.get(key, Fraction(0)) + coeff
            if new:
                data[key] = new
            else:
                data.pop(key, None)
        result = BivariatePolynomial.zero()
        result._terms = data
        return result

    __radd__ = __add__

    def __neg__(self) -> "BivariatePolynomial":
        result = BivariatePolynomial.zero()
        result._terms = {key: -coeff for key, coeff in self._terms.items()}
        return result

    def __sub__(self, other) -> "BivariatePolynomial":
        return self + (-other if isinstance(other, BivariatePolynomial) else BivariatePolynomial.constant(-Fraction(other)))

    def __rsub__(self, other) -> "BivariatePolynomial":
        return BivariatePolynomial.constant(other) + (-self)

    def __mul__(self, other) -> "BivariatePolynomial":
        if isinstance(other, Rational):
            other = Fraction(other)
            result = BivariatePolynomial.zero()
            if other:
                result._terms = {k: c * other for k, c in self._terms.items()}
            return result
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        data: Dict[Tuple[int, int], Fraction] = {}
        for (ax, ay), ac in self._terms.items():
            for (bx, by), bc in other._terms.items():
                key = (ax + bx, ay + by)
                new = data.get(key, Fraction(0)) + ac * bc
                if new:
                    data[key] = new
                else:
                    data.pop(key, None)
        result = BivariatePolynomial.zero()
        result._terms = data
        return result

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "BivariatePolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ParameterError(f"polynomial powers need an exponent >= 0, got {exponent}")
        result = BivariatePolynomial.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def scale(self, factor) -> "BivariatePolynomial":
        return self * Fraction(factor)

    def eval_exact(self, x0, y0) -> Fraction:
        """Exact value at (x0, y0); negative exponents divide (Laurent)."""
        x0, y0 = Fraction(x0), Fraction(y0)
        total = Fraction(0)
        for (ex, ey), coeff in self._terms.items():
            total += coeff * x0**ex * y0**ey
        return total

    def min_exponents(self) -> Tuple[int, int]:
        if not self._terms:
            return (0, 0)
        return (min(k[0] for k in self._terms), min(k[1] for k in self._terms))

    def max_exponents(self) -> Tuple[int, int]:
        if not self._terms:
            return (0, 0)
        return (max(k[0] for k in self._terms), max(k[1] for k in self._terms))

    def is_laurent(self) -> bool:
        mx, my = self.min_exponents()
        return mx < 0 or my < 0

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"x": ex, "y": ey, "c": str(coeff)}
                for (ex, ey), coeff in sorted(self._terms.items())
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, data: dict) -> "BivariatePolynomial":
        return cls({(term["x"], term["y"]): Fraction(term["c"]) for term in data["terms"]})

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for (ex, ey), coeff in sorted(self._terms.items()):
            mono = "".join(
                f"{var}^{e}" if e not in (0, 1) else (var if e == 1 else "")
                for var, e in (("x", ex), ("y", ey))
            )
            if not mono:
                chunks.append(str(coeff))
            elif coeff == 1:
                chunks.append(mono)
            elif coeff == -1:
                chunks.append(f"-{mono}")
            else:
                chunks.append(f"{coeff}*{mono}")
        return " + ".join(chunks).replace("+ -", "- ")


ONE = BivariatePolynomial.constant(1)
X = BivariatePolynomial.monomial(1, 0)
Y = BivariatePolynomial.monomial(0, 1)


@dataclass(frozen=True)
class RationalExpr:
    """Quotient of two polynomials; equality is by cross-multiplication."""

    num: BivariatePolynomial
    den: BivariatePolynomial = ONE

    def __post_init__(self):
        if self.den.is_zero():
            raise ParameterError("the denominator polynomial must be nonzero")

    def __mul__(self, other: "RationalExpr") -> "RationalExpr":
        return RationalExpr(self.num * other.num, self.den * other.den)

    def __add__(self, other: "RationalExpr") -> "RationalExpr":
        return RationalExpr(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def equals(self, other: "RationalExpr") -> bool:
        return self.num * other.den == other.num * self.den


def substitute(
    poly: BivariatePolynomial,
    u: RationalExpr,
    v: RationalExpr,
    degree_bound: int = None,
) -> RationalExpr:
    """Evaluate poly(u, v) as a single quotient over a common denominator.

    Each monomial x^r y^s becomes u^r v^s; the common denominator is
    u.den^d * v.den^d where d bounds the degree of poly in each variable,
    so the numerator stays a polynomial throughout.
    """
    mx, my = poly.min_exponents()
    if mx < 0 or my < 0:
        raise ParameterError("substitution requires a true polynomial, not a Laurent one")
    dx, dy = poly.max_exponents()
    d = max(dx, dy, 0) if degree_bound is None else degree_bound
    if d < max(dx, dy, 0):
        raise ParameterError(f"degree bound {d} is below the actual degree {max(dx, dy)}")
    numerator = BivariatePolynomial.zero()
    u_num_pows = [u.num**k for k in range(d + 1)]
    u_den_pows = [u.den**k for k in range(d + 1)]
    v_num_pows = [v.num**k for k in range(d + 1)]
    v_den_pows = [v.den**k for k in range(d + 1)]
    for (ex, ey), coeff in poly.terms().items():
        numerator = numerator + (
            u_num_pows[ex] * u_den_pows[d - ex] * v_num_pows[ey] * v_den_pows[d - ey]
        ).scale(coeff)
    return RationalExpr(numerator, u_den_pows[d] * v_den_pows[d])


def _assert_integral(poly: BivariatePolynomial, context: str, nonnegative: bool = False):
    for key, coeff in poly.terms().items():
        if coeff.denominator != 1:
            raise InvariantViolation(f"{context}: non-integral coefficient {coeff} at {key}")
        if nonnegative and coeff < 0:
            raise InvariantViolation(f"{context}: negative coefficient {coeff} at {key}")
    return poly


def m_triangle_brute(p: Params, max_objects: int = DEFAULT_MAX_OBJECTS) -> BivariatePolynomial:
    """Moebius-weighted rank generating polynomial, straight off the poset."""
    poset = build_refinement_poset(p, max_objects=max_objects)
    coeffs: Dict[Tuple[int, int], Fraction] = {}
    for a in range(len(poset)):
        ra = poset.rank(a)
        row = poset._moebius_row(a)
        for b, mu in row.items():
            if mu:
                key = (ra, poset.rank(b))
                coeffs[key] = coeffs.get(key, Fraction(0)) + mu
    return BivariatePolynomial(coeffs)


def m_triangle_closed(p: Params) -> BivariatePolynomial:
    """Closed double sum for the Moebius rank triangle; coefficients integral."""
    m, n, t = p.m, p.n, p.t
    d = n - t
    coeffs: Dict[Tuple[int, int], Fraction] = {}
    for r in range(d + 1):
        for s in range(r, d + 1):
            value = Fraction(
                t * (m * n - t + 1) - (n - t - s) * (t - 1), n * (m * n - t + 1)
            )
            value *= (-1) ** (s - r)
            value *= binomial(n, r)
            value *= binomial(m * n - t + 1, n - t - s)
            value *= binomial(m * n + s - r - 1, s - r)
            if value:
                coeffs[(r, s)] = coeffs.get((r, s), Fraction(0)) + value
    return _assert_integral(BivariatePolynomial(coeffs), "closed rank triangle")


def h_triangle_closed(p: Params) -> BivariatePolynomial:
    """Closed form of the H-triangle; coefficients are non-negative integers."""
    m, n, t = p.m, p.n, p.t
    d = n - t
    coeffs: Dict[Tuple[int, int], Fraction] = {}
    for k in range(d + 1):
        for h in range(d - k + 1):
            value = Fraction(
                binomial(m * n - t + 1, k) * binomial(t + k + h - 2, h)
                - m * binomial(m * n - t, k - 1) * binomial(t + k + h - 1, h)
            )
            key = (d - k, d - k - h)
            if value:
                coeffs[key] = coeffs.get(key, Fraction(0)) + value
    return _assert_integral(BivariatePolynomial(coeffs), "closed H-triangle", nonnegative=True)


def f_triangle_closed(p: Params) -> BivariatePolynomial:
    """Closed form of the F-triangle; coefficients are non-negative integers."""
    m, n, t = p.m, p.n, p.t
    d = n - t
    coeffs: Dict[Tuple[int, int], Fraction] = {}
    for a in range(d + 1):
        for b in range(d - a + 1):
            value = Fraction(t + b, n)
            value *= binomial(m * n + a - 1, a)
            value *= binomial(n, t + a + b)
            if value:
                coeffs[(a, b)] = coeffs.get((a, b), Fraction(0)) + value
    return _assert_integral(BivariatePolynomial(coeffs), "closed F-triangle", nonnegative=True)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of the six substitution identities for one parameter triple.

    `alt_prefactor_holds` tracks the alternative H-from-M prefactor
    1 + x(y+1); the normative check uses 1 + x(y-1), which is the variant
    consistent with the closed H form.
    """

    params: Params
    results: Tuple[Tuple[str, bool], ...]
    alt_prefactor_holds: bool

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok in self.results)

    def as_dict(self) -> dict:
        out = {"m": self.params.m, "n": self.params.n, "t": self.params.t}
        out.update(self.results)
        out["h_from_m_alt_prefactor"] = self.alt_prefactor_holds
        out["pass"] = self.all_pass
        return out


def _identity_holds(lhs, prefactor, source, u, v, degree_bound) -> bool:
    rhs = RationalExpr(prefactor) * substitute(source, u, v, degree_bound)
    return RationalExpr(lhs).equals(rhs)


def verify_transformation_identities(p: Params) -> IdentityReport:
    """Check the six triangle substitution identities by denominator clearing.

    Each source triangle is substituted monomial by monomial (a RationalExpr
    per term over the identity's fixed denominator factors), summed over the
    common denominator, and compared against the prefactor times the target
    side as exact polynomials.
    """
    d = p.max_rank
    m_tri = m_triangle_closed(p)
    h_tri = h_triangle_closed(p)
    f_tri = f_triangle_closed(p)

    def expr(num, den=ONE):
        return RationalExpr(num, den)

    y_minus_x = Y - X
    y_minus_1 = Y - ONE
    x_minus_1 = X - ONE
    x_plus_1 = X + ONE
    y_plus_1 = Y + ONE
    xy_minus_1 = X * Y - ONE
    one_minus_y = ONE - Y
    x_ym1_plus_1 = X * y_minus_1 + ONE

    checks = (
        ("f_from_m", f_tri, Y**d, m_tri, expr(y_plus_1, y_minus_x), expr(y_minus_x, Y)),
        ("f_from_h", f_tri, X**d, h_tri, expr(x_plus_1, X), expr(y_plus_1, x_plus_1)),
        ("h_from_m", h_tri, x_ym1_plus_1**d, m_tri, expr(Y, y_minus_1), expr(X * y_minus_1, x_ym1_plus_1)),
        ("h_from_f", h_tri, x_minus_1**d, f_tri, expr(ONE, x_minus_1), expr(x_ym1_plus_1, x_minus_1)),
        ("m_from_f", m_tri, xy_minus_1**d, f_tri, expr(one_minus_y, xy_minus_1), expr(ONE, xy_minus_1)),
        ("m_from_h", m_tri, one_minus_y**d, h_tri, expr(Y * x_minus_1, one_minus_y), expr(X, x_minus_1)),
    )
    results = tuple(
        (name, _identity_holds(lhs, prefactor, source, u, v, d))
        for name, lhs, prefactor, source, u, v in checks
    )
    alt_variant = _identity_holds(
        h_tri,
        (X * y_plus_1 + ONE) ** d,
        m_tri,
        expr(Y, y_minus_1),
        expr(X * y_minus_1, x_ym1_plus_1),
        d,
    )
    return IdentityReport(p, results, alt_variant)
