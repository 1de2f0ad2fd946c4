"""Exact bivariate integer polynomial algebra and the triangles.

A polynomial holds `int` coefficients and exponents >= 0, checked once by
its constructor: the M-, F- and H-triangles and the cleared sides of the
substitutions between them are all integer polynomials, so nothing is ever
rounded or held as a rational.  Every public triangle constructor returns
exponents in [0, n - t] and asserts integrality (and, where promised,
non-negativity) of all coefficients.  The substitution identities are
verified by clearing denominators: each identity has a small fixed factor
set, and the two cleared sides are compared at one integer point chosen so
that equality there is equality as polynomials, an exact, proof-grade check
rather than a sampling argument.
"""

import json
from typing import Dict, Tuple

from .closedform import _ratio, binomial
from .errors import InvariantViolation, ParameterError
from .ncpart import DEFAULT_MAX_OBJECTS
from .params import Params, Value
from .posetcore import _bits, build_refinement_poset


def _wrap(data: dict) -> "BivariatePolynomial":
    """Polynomial over freshly computed int terms, zeros dropped, unchecked."""
    result = BivariatePolynomial.zero()
    result._terms = {key: coeff for key, coeff in data.items() if coeff}
    return result


class BivariatePolynomial:
    """Sparse polynomial in two variables with int coefficients and exponents >= 0.

    `terms` is a mapping or an iterable of ((x, y), coefficient) pairs.
    Bools count as neither; any other coefficient or exponent, or an (x, y)
    given twice, raises ParameterError.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: Dict[Tuple[int, int], int] = {}
        for (ex, ey), coeff in terms.items() if isinstance(terms, dict) else terms or ():
            for e in (ex, ey):
                if type(e) is not int or e < 0:
                    raise ParameterError(f"exponents must be integers >= 0, got {e!r}")
            if type(coeff) is not int:
                raise ParameterError(f"coefficients must be integers, got {coeff!r}")
            if (ex, ey) in data:
                raise ParameterError(f"the term ({ex}, {ey}) is given more than once")
            data[(ex, ey)] = coeff
        self._terms = {key: coeff for key, coeff in data.items() if coeff}

    @classmethod
    def zero(cls) -> "BivariatePolynomial":
        return cls()

    @classmethod
    def constant(cls, value) -> "BivariatePolynomial":
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, ex: int, ey: int, coeff=1) -> "BivariatePolynomial":
        return cls({(ex, ey): coeff})

    def terms(self) -> Dict[Tuple[int, int], int]:
        return dict(self._terms)

    def coefficient(self, ex: int, ey: int) -> int:
        return self._terms.get((ex, ey), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, BivariatePolynomial):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other) -> "BivariatePolynomial":
        if type(other) is int:
            other = BivariatePolynomial.constant(other)
        elif not isinstance(other, BivariatePolynomial):
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
        if type(other) is int or isinstance(other, BivariatePolynomial):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other) -> "BivariatePolynomial":
        return (-self).__add__(other)

    def __mul__(self, other) -> "BivariatePolynomial":
        if type(other) is int:
            return _wrap({k: c * other for k, c in self._terms.items()})
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        data: Dict[Tuple[int, int], int] = {}
        get = data.get
        for (ax, ay), ac in self._terms.items():
            for (bx, by), bc in other._terms.items():
                key = (ax + bx, ay + by)
                data[key] = get(key, 0) + ac * bc
        return _wrap(data)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "BivariatePolynomial":
        if type(exponent) is not int or exponent < 0:
            raise ParameterError(f"polynomial powers need an exponent >= 0, got {exponent}")
        result = BivariatePolynomial.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def max_exponents(self) -> Tuple[int, int]:
        if not self._terms:
            return (0, 0)
        return (max(k[0] for k in self._terms), max(k[1] for k in self._terms))

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"x": ex, "y": ey, "c": str(coeff)}
                for (ex, ey), coeff in sorted(self._terms.items())
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

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


class RationalExpr(Value):
    """Quotient of two polynomials; `equals` compares by cross-multiplication."""

    _fields = ("num", "den")

    def __init__(self, num: BivariatePolynomial, den: BivariatePolynomial = ONE):
        if den.is_zero():
            raise ParameterError("the denominator polynomial must be nonzero")
        vars(self).update(num=num, den=den)

    def __mul__(self, other: "RationalExpr") -> "RationalExpr":
        return RationalExpr(self.num * other.num, self.den * other.den)

    def __add__(self, other: "RationalExpr") -> "RationalExpr":
        return RationalExpr(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def equals(self, other: "RationalExpr") -> bool:
        return self.num * other.den == other.num * self.den


def _power_weights(num, den, d: int):
    """[num^k * den^(d - k) for k = 0..d], powers by running products.

    num and den are both polynomials or both ints.
    """
    num_pows, den_pows = [num**0], [den**0]
    for _ in range(d):
        num_pows.append(num_pows[-1] * num)
        den_pows.append(den_pows[-1] * den)
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
    degree = max(poly.max_exponents())
    d = degree if degree_bound is None else degree_bound
    if d < degree:
        raise ParameterError(f"degree bound {d} is below the actual degree {degree}")
    u_weights = _power_weights(u.num, u.den, d)
    v_weights = _power_weights(v.num, v.den, d)
    rows: Dict[int, dict] = {}
    for (ex, ey), coeff in poly._terms.items():
        row = rows.setdefault(ex, {})
        for key, c in v_weights[ey]._terms.items():
            row[key] = row.get(key, 0) + coeff * c
    numerator = BivariatePolynomial.zero()
    for ex, row in rows.items():
        numerator = numerator + u_weights[ex] * _wrap(row)
    return RationalExpr(numerator, u_weights[0] * v_weights[0])


def _exact_quotient(numerator: int, denominator: int, key, context: str) -> int:
    """numerator / denominator, which must be an integer: else InvariantViolation at key."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise InvariantViolation(
            f"{context}: non-integral coefficient {_ratio(numerator, denominator)} at {key}"
        )
    return quotient


def _assert_nonnegative(poly: BivariatePolynomial, context: str) -> BivariatePolynomial:
    for key, coeff in poly._terms.items():
        if coeff < 0:
            raise InvariantViolation(f"{context}: negative coefficient {coeff} at {key}")
    return poly


def m_triangle_brute(p: Params, max_objects: int = DEFAULT_MAX_OBJECTS) -> BivariatePolynomial:
    """M(x, y) = sum over a <= b of mu(a, b) x^rk(a) y^rk(b), straight off the poset.

    The coefficient of x^r y^s sums v_r[b] = sum over a of rank r of
    mu(a, b) over the b of rank s.  Moebius inversion gives each v_r in one
    triangular solve, v_r[b] = [rk b = r] - sum over a < b of v_r[a], taken
    level by level (rank r, r + 1, ...) over the support of levels r..top;
    each a < b lies on a lower level than b.  One solve per rank replaces
    one Moebius row per element.  The support is exact with no lemma: an
    element of rank >= r above no rank-r element has only such elements
    below it at ranks >= r, so by induction on rank each of them gets
    v_r = 0 and the sums of the others do not change.
    """
    poset = build_refinement_poset(p, max_objects=max_objects)
    levels = [poset.level_mask(s) for s in range(poset.max_rank + 1)]
    coeffs: Dict[Tuple[int, int], int] = {}
    for r in range(len(levels)):
        support = sum(levels[r:])  # the levels are disjoint, so this is their OR
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
    """Closed double sum for the Moebius rank triangle, in integer arithmetic.

    Each coefficient is an integer numerator over n(mn - t + 1); a quotient
    that is not an integer raises InvariantViolation naming its (r, s).
    """
    m, n, t = p.m, p.n, p.t
    d = n - t
    denominator = n * (m * n - t + 1)
    coeffs: Dict[Tuple[int, int], int] = {}
    for r in range(d + 1):
        for s in range(r, d + 1):
            numerator = (
                (-1) ** (s - r)
                * (t * (m * n - t + 1) - (n - t - s) * (t - 1))
                * binomial(n, r)
                * binomial(m * n - t + 1, n - t - s)
                * binomial(m * n + s - r - 1, s - r)
            )
            coeffs[(r, s)] = _exact_quotient(numerator, denominator, (r, s), "closed rank triangle")
    return _wrap(coeffs)


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
    return _assert_nonnegative(_wrap(coeffs), "closed H-triangle")


def f_triangle_closed(p: Params) -> BivariatePolynomial:
    """Closed form of the F-triangle in integer arithmetic; coefficients are non-negative.

    Each coefficient is an integer numerator over n; a quotient that is not
    an integer raises InvariantViolation naming its (a, b).
    """
    m, n, t = p.m, p.n, p.t
    d = n - t
    coeffs: Dict[Tuple[int, int], int] = {}
    for a in range(d + 1):
        for b in range(d - a + 1):
            numerator = (t + b) * binomial(m * n + a - 1, a) * binomial(n, t + a + b)
            coeffs[(a, b)] = _exact_quotient(numerator, n, (a, b), "closed F-triangle")
    return _assert_nonnegative(_wrap(coeffs), "closed F-triangle")


# Chapoton's substitutions, one row per identity: (name, lhs, prefactor base,
# source, u, v, alternative base).  A row claims lhs = base^d * source(u, v)
# with d = n - t, naming the triangles "m", "f" and "h".  Only the H-from-M
# row has an alternative base, 1 + x(y + 1), checked on the same image for
# information; the normative base 1 + x(y - 1) is the one consistent with the
# closed H form.
_IDENTITIES = (
    ("f_from_m", "f", Y, "m", RationalExpr(Y + ONE, Y - X), RationalExpr(Y - X, Y), None),
    ("f_from_h", "f", X, "h", RationalExpr(X + ONE, X), RationalExpr(Y + ONE, X + ONE), None),
    (
        "h_from_m",
        "h",
        X * (Y - ONE) + ONE,
        "m",
        RationalExpr(Y, Y - ONE),
        RationalExpr(X * (Y - ONE), X * (Y - ONE) + ONE),
        X * (Y + ONE) + ONE,
    ),
    ("h_from_f", "h", X - ONE, "f", RationalExpr(ONE, X - ONE), RationalExpr(X * (Y - ONE) + ONE, X - ONE), None),
    ("m_from_f", "m", X * Y - ONE, "f", RationalExpr(ONE - Y, X * Y - ONE), RationalExpr(ONE, X * Y - ONE), None),
    ("m_from_h", "m", ONE - Y, "h", RationalExpr(Y * (X - ONE), ONE - Y), RationalExpr(X, X - ONE), None),
)


def _l1(poly: BivariatePolynomial) -> int:
    return sum(abs(c) for c in poly._terms.values())


def _layout(lhs, bases, source, u, v, d: int) -> Tuple[int, int]:
    """(w, Dx) for lhs * u.den^d v.den^d - base^d * sum c_rs U_r V_s, any base in bases.

    Dx bounds the x-degree of that difference and every |coefficient| of it
    is below 2^(w - 1); see `verify_transformation_identities`.
    """

    def deg(poly):
        return poly.max_exponents()[0]

    dx = max(
        deg(lhs) + d * (deg(u.den) + deg(v.den)),
        d * (max(map(deg, bases)) + max(deg(u.num), deg(u.den)) + max(deg(v.num), deg(v.den))),
    )
    un, ud, vn, vd = map(_l1, (u.num, u.den, v.num, v.den))
    image = sum(
        abs(c) * un**r * ud ** (d - r) * vn**s * vd ** (d - s) for (r, s), c in source._terms.items()
    )
    bound = _l1(lhs) * ud**d * vd**d + max(map(_l1, bases)) ** d * image
    return (2 * bound).bit_length() + 1, dx


def _pack(poly: BivariatePolynomial, w: int, stride: int) -> int:
    """poly at x = 2^w, y = 2^stride, by shifts: rows sum c << w*a, joined by Horner in y."""
    rows: Dict[int, int] = {}
    for (a, b), c in poly._terms.items():
        rows[b] = rows.get(b, 0) + (c << (w * a))
    value = 0
    for b in range(max(rows, default=-1), -1, -1):
        value = (value << stride) + rows.get(b, 0)
    return value


def verify_transformation_identities(p: Params) -> Tuple[Tuple[Tuple[str, bool], ...], bool]:
    """Check the six triangle substitution identities in exact integer arithmetic.

    Returns (results, alt_prefactor_holds): results holds one (name, holds)
    pair per row of `_IDENTITIES`, in table order, and alt_prefactor_holds
    the verdict of the H-from-M row's alternative base 1 + x(y + 1).  The
    normative base 1 + x(y - 1) is the one consistent with the closed H form.
    `tests/oracles.py::identities_literal` returns the same pair.

    Each row of `_IDENTITIES` claims lhs = base^d * source(u, v), d = n - t.
    Over the common denominator of `substitute` this is

        lhs * u.den^d * v.den^d == base^d * sum c_rs U_r V_s,
        U_r = u.num^r u.den^(d - r),  V_s = v.num^s v.den^(d - s),

    with c_rs the coefficients of source (r, s <= d, as in every closed
    triangle).  Both sides are integer polynomials; the identity holds iff
    their difference D is zero.  Instead of expanding D, each side is
    evaluated at the Kronecker point x0 = 2^w, y0 = 2^(w (Dx + 1)) and the
    two integers are compared, with (w, Dx) from `_layout`:

    * Dx bounds the x-degree of D: deg_x lhs + d (deg_x u.den + deg_x v.den)
      bounds the left side, and d (deg_x base + max(deg_x u.num, deg_x u.den)
      + max(deg_x v.num, deg_x v.den)) every term of the right.
    * C bounds every |coefficient| of D, since a coefficient is at most the
      l1 norm (sum of |coefficients|) and |PQ|_1 <= |P|_1 |Q|_1:
      C = |lhs|_1 |u.den|_1^d |v.den|_1^d + |base|_1^d sum |c_rs|
      |u.num|_1^r |u.den|_1^(d - r) |v.num|_1^s |v.den|_1^(d - s).
      w = bit_length(2C) + 1, so C < 2^(w - 1).

    Then D(x0, y0) = sum d_ab 2^(w (a + (Dx + 1) b)).  As 0 <= a <= Dx, each
    monomial has its own exponent k = a + (Dx + 1) b, a w-bit slot.  If D is
    nonzero, let k0 be its lowest occupied slot: D(x0, y0) =
    2^(w k0) (d_k0 + 2^w R) for an integer R, and that is nonzero because
    0 < |d_k0| < 2^w.  So D(x0, y0) == 0 iff D == 0: the verdict is exact
    and assumes no lemma.

    Packed values are built by shifts (`_pack`); only products of packed
    factors are big-int multiplications.  The H-from-M row also checks its
    alternative base on the same image, with (w, Dx) chosen for both bases.
    `_pack` shifts coefficients, which `BivariatePolynomial` guarantees to
    be ints.  `substitute` and `RationalExpr` give the same check on
    polynomials (the test oracle).
    """
    d = p.max_rank
    triangles = {"m": m_triangle_closed(p), "h": h_triangle_closed(p), "f": f_triangle_closed(p)}
    results = []
    for name, lhs_name, base, source_name, u, v, alt_base in _IDENTITIES:
        lhs, source = triangles[lhs_name], triangles[source_name]
        bases = (base,) if alt_base is None else (base, alt_base)
        w, dx = _layout(lhs, bases, source, u, v, d)
        stride = w * (dx + 1)
        un, ud, vn, vd = (_pack(f, w, stride) for f in (u.num, u.den, v.num, v.den))
        u_weights = _power_weights(un, ud, d)
        v_weights = _power_weights(vn, vd, d)
        rows: Dict[int, int] = {}
        for (r, s), c in source._terms.items():
            rows[r] = rows.get(r, 0) + c * v_weights[s]
        image = sum(u_weights[r] * row for r, row in rows.items())
        left = _pack(lhs, w, stride) * u_weights[0] * v_weights[0]
        holds = [left == _pack(b, w, stride) ** d * image for b in bases]
        results.append((name, holds[0]))
        if alt_base is not None:
            alt_holds = holds[1]
    return tuple(results), alt_holds
