"""Exact bivariate (Laurent-capable) polynomial algebra and the triangles.

Coefficients are exact rationals: an integral coefficient is held as a plain
`int` and any other as a `Fraction`, so integer triangles never pay for
rational arithmetic and nothing is ever rounded.  Exponents may go negative
inside intermediate computations, but every public triangle constructor
returns an honest polynomial with exponents in [0, n - t] and asserts
integrality (and, where promised, non-negativity) of all coefficients.  The
substitution identities are verified by clearing denominators symbolically:
each identity has a small fixed factor set, so equality of the cleared
numerators is an exact, proof-grade check rather than a sampling argument.
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
from .posetcore import _bits, build_refinement_poset


def _exact(coeff):
    """The exact value of `coeff`: an int when integral, else a Fraction."""
    if type(coeff) is int:
        return coeff
    coeff = Fraction(coeff)
    return coeff.numerator if coeff.denominator == 1 else coeff


def _wrap(data: dict) -> "BivariatePolynomial":
    """Polynomial over freshly computed terms, zeros dropped."""
    result = BivariatePolynomial.zero()
    result._terms = {
        key: coeff if type(coeff) is int else _exact(coeff) for key, coeff in data.items() if coeff
    }
    return result


class BivariatePolynomial:
    """Sparse exact polynomial in two variables.

    An integral coefficient is stored as an `int`, any other as a `Fraction`.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: Dict[Tuple[int, int], Rational] = {}
        if terms:
            for (ex, ey), coeff in dict(terms).items():
                for e in (ex, ey):
                    if not isinstance(e, int) or isinstance(e, bool):
                        raise ParameterError(f"exponents must be integers, got {e!r}")
                coeff = _exact(coeff)
                if coeff:
                    data[(ex, ey)] = coeff
        self._terms = data

    @classmethod
    def zero(cls) -> "BivariatePolynomial":
        return cls()

    @classmethod
    def constant(cls, value) -> "BivariatePolynomial":
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, ex: int, ey: int, coeff=1) -> "BivariatePolynomial":
        return cls({(ex, ey): coeff})

    def terms(self) -> Dict[Tuple[int, int], Rational]:
        return dict(self._terms)

    def coefficient(self, ex: int, ey: int) -> Rational:
        return self._terms.get((ex, ey), 0)

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
        get = data.get
        for key, coeff in other._terms.items():
            data[key] = get(key, 0) + coeff
        return _wrap(data)

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
            other = _exact(other)
            return _wrap({k: c * other for k, c in self._terms.items()})
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        data: Dict[Tuple[int, int], Rational] = {}
        get = data.get
        for (ax, ay), ac in self._terms.items():
            for (bx, by), bc in other._terms.items():
                key = (ax + bx, ay + by)
                data[key] = get(key, 0) + ac * bc
        return _wrap(data)

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


def _power_weights(expr: RationalExpr, d: int):
    """[expr.num^k * expr.den^(d - k) for k = 0..d], powers by running products."""
    num_pows, den_pows = [ONE], [ONE]
    for _ in range(d):
        num_pows.append(num_pows[-1] * expr.num)
        den_pows.append(den_pows[-1] * expr.den)
    return [num_pows[k] * den_pows[d - k] for k in range(d + 1)]


def substitute(
    poly: BivariatePolynomial,
    u: RationalExpr,
    v: RationalExpr,
    degree_bound: int = None,
) -> RationalExpr:
    """Evaluate poly(u, v) as a single quotient over a common denominator.

    Each monomial x^r y^s becomes u^r v^s; the common denominator is
    u.den^d * v.den^d where d bounds the degree of poly in each variable,
    so the numerator stays a polynomial throughout.  The terms are grouped
    by their x-exponent r into rows sum_s c_rs * V[s] (scalar operations
    only), and the numerator is sum_r U[r] * row_r, where
    U[k] = u.num^k u.den^(d-k) and V[k] = v.num^k v.den^(d-k).
    """
    mx, my = poly.min_exponents()
    if mx < 0 or my < 0:
        raise ParameterError("substitution requires a true polynomial, not a Laurent one")
    dx, dy = poly.max_exponents()
    d = max(dx, dy, 0) if degree_bound is None else degree_bound
    if d < max(dx, dy, 0):
        raise ParameterError(f"degree bound {d} is below the actual degree {max(dx, dy)}")
    u_weights = _power_weights(u, d)
    v_weights = _power_weights(v, d)
    rows: Dict[int, dict] = {}
    for (ex, ey), coeff in poly._terms.items():
        row = rows.setdefault(ex, {})
        for key, c in v_weights[ey]._terms.items():
            row[key] = row.get(key, 0) + coeff * c
    numerator = BivariatePolynomial.zero()
    for ex, row in rows.items():
        numerator = numerator + u_weights[ex] * _wrap(row)
    return RationalExpr(numerator, u_weights[0] * v_weights[0])


def _assert_integral(poly: BivariatePolynomial, context: str, nonnegative: bool = False):
    for key, coeff in poly.terms().items():
        if coeff.denominator != 1:
            raise InvariantViolation(f"{context}: non-integral coefficient {coeff} at {key}")
        if nonnegative and coeff < 0:
            raise InvariantViolation(f"{context}: negative coefficient {coeff} at {key}")
    return poly


def m_triangle_brute(p: Params, max_objects: int = DEFAULT_MAX_OBJECTS) -> BivariatePolynomial:
    """M(x, y) = sum over a <= b of mu(a, b) x^rk(a) y^rk(b), straight off the poset.

    The coefficient of x^r y^s sums v_r[b] = sum over a of rank r of
    mu(a, b) over the b of rank s.  Moebius inversion gives each v_r in one
    triangular solve, v_r[b] = [rk b = r] - sum over a < b of v_r[a], taken
    level by level (rank r, r + 1, ...) over the up-set of rank r, outside
    which v_r vanishes; each a < b lies on a lower level than b.  One solve
    per rank replaces one Moebius row per element.
    """
    poset = build_refinement_poset(p, max_objects=max_objects)
    levels = [poset.level_mask(s) for s in range(poset.max_rank + 1)]
    coeffs: Dict[Tuple[int, int], int] = {}
    for r, level in enumerate(levels):
        support = 0
        for a in _bits(level):
            support |= poset.up_mask(a)
        v = [0] * len(poset)
        for s in range(r, len(levels)):
            total = 0
            for b in _bits(support & levels[s]):
                below = poset.down_mask(b) & support & ~(1 << b)
                v[b] = (s == r) - sum(v[a] for a in _bits(below))
                total += v[b]
            coeffs[(r, s)] = total
    return BivariatePolynomial(coeffs)


def m_triangle_closed(p: Params) -> BivariatePolynomial:
    """Closed double sum for the Moebius rank triangle; coefficients integral."""
    m, n, t = p.m, p.n, p.t
    d = n - t
    coeffs: Dict[Tuple[int, int], Rational] = {}
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
                coeffs[(r, s)] = coeffs.get((r, s), 0) + value
    return _assert_integral(BivariatePolynomial(coeffs), "closed rank triangle")


def h_triangle_closed(p: Params) -> BivariatePolynomial:
    """Closed form of the H-triangle; coefficients are non-negative integers."""
    m, n, t = p.m, p.n, p.t
    d = n - t
    coeffs: Dict[Tuple[int, int], int] = {}
    for k in range(d + 1):
        for h in range(d - k + 1):
            value = (
                binomial(m * n - t + 1, k) * binomial(t + k + h - 2, h)
                - m * binomial(m * n - t, k - 1) * binomial(t + k + h - 1, h)
            )
            key = (d - k, d - k - h)
            if value:
                coeffs[key] = coeffs.get(key, 0) + value
    return _assert_integral(BivariatePolynomial(coeffs), "closed H-triangle", nonnegative=True)


def f_triangle_closed(p: Params) -> BivariatePolynomial:
    """Closed form of the F-triangle; coefficients are non-negative integers."""
    m, n, t = p.m, p.n, p.t
    d = n - t
    coeffs: Dict[Tuple[int, int], Rational] = {}
    for a in range(d + 1):
        for b in range(d - a + 1):
            value = Fraction(t + b, n)
            value *= binomial(m * n + a - 1, a)
            value *= binomial(n, t + a + b)
            if value:
                coeffs[(a, b)] = coeffs.get((a, b), 0) + value
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


def _identity_holds(lhs, prefactor, image: RationalExpr) -> bool:
    return RationalExpr(lhs).equals(RationalExpr(prefactor) * image)


def verify_transformation_identities(p: Params) -> IdentityReport:
    """Check the six triangle substitution identities by denominator clearing.

    Each source triangle is substituted over the common denominator built
    from the identity's fixed factors (see `substitute`), and the cleared
    numerator is compared against the prefactor times the target side as
    exact polynomials.
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
    results = []
    for name, lhs, prefactor, source, u, v in checks:
        image = substitute(source, u, v, d)
        results.append((name, _identity_holds(lhs, prefactor, image)))
        if name == "h_from_m":  # the alternative prefactor is checked on the same image
            alt_variant = _identity_holds(lhs, (X * y_plus_1 + ONE) ** d, image)
    return IdentityReport(p, tuple(results), alt_variant)
