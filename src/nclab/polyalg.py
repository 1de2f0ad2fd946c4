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
from typing import Dict, Iterator, Sequence, Tuple

from .closedform import _ratio, binomial
from .errors import DEFAULT_MAX_OBJECTS, InvariantViolation, ParameterError
from .params import Params, Value


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
    """Quotient num / den of two polynomials, den nonzero: a substitution rule or its result."""

    _fields = ("num", "den")

    def __init__(self, num: BivariatePolynomial, den: BivariatePolynomial = ONE):
        if den.is_zero():
            raise ParameterError("the denominator polynomial must be nonzero")
        vars(self).update(num=num, den=den)


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


def _slot_width(level_sizes) -> int:
    """Bits per signed slot of the packed M-triangle solve.

    bound = prod over s of (1 + |level s|) exceeds every coefficient's
    absolute value (see m_triangle_brute), and bound < 2^(w - 1) for
    w = bound.bit_length() + 1.
    """
    bound = 1
    for size in level_sizes:
        bound *= 1 + size
    return bound.bit_length() + 1


def _leading_minima(blocks) -> int:
    """The largest k such that blocks 1..k (sorted by minimum) have minima 1..k."""
    k = 0
    while k < len(blocks) and blocks[k][0] == k + 1:
        k += 1
    return k


def m_triangles_brute(
    m: int, n: int, ts: Sequence[int], max_objects: int = DEFAULT_MAX_OBJECTS
) -> Iterator[Tuple[int, BivariatePolynomial]]:
    """(t, M-triangle of Params(m, n, t)) for each t of ts, ascending, from one poset at t0 = min(ts).

    M(x, y) = sum over a <= b of mu(a, b) x^rk(a) y^rk(b), straight off the poset.
    The coefficient c(r, s) of x^r y^s sums v_r[b] = sum over a of rank r of
    mu(a, b) over the b of rank s.  Moebius inversion gives
    v_r[b] = [rk b = r] - sum over a < b of v_r[a] for every r at once, so
    one pass solves all ranks: each b gets one int V[b], the sum over r of
    v_r[b] 2^(w r), computed level by level as
    V[b] = 2^(w rk b) - sum over a < b of V[a] (each a < b lies on a lower
    level).  V is one dict keyed by element key (poset.keys), and the a are
    read off poset.down(b) as keys; down(b) also lists b, whose entry reads
    0 until V[b] is set.  The elements come in index order, which is level
    order, so a key with no entry is outside the family or of an element not
    yet solved: that would break the lemma of build_refinement_poset and
    raises InvariantViolation naming b's blocks.  The recurrence is linear,
    so V[b] equals that sum exactly as an integer, whatever w is, and each
    comparable pair costs one big-int add.
    The sum of V over level s is the sum over r <= s of c(r, s) 2^(w r)
    (v_r[b] = 0 for r > rk b).

    Every t of ts reads the same pass.  Lemma: the order-t family is
    isomorphic, as a ranked poset, to the order ideal of the t0 family
    whose members keep 1..t in distinct blocks, i.e. those whose first
    t blocks by minimum have minima 1..t (`_leading_minima` >= t): t
    distinct blocks meeting 1..t have t distinct minima <= t.  Proof:
    both families are relabellings by tilde_transform of the classical
    partitions with 1..t0 (resp. 1..t) in distinct blocks
    (ncpart._nc_blocks); the t0 relabelling permutes 1..t0 inside 1..t,
    so it keeps 1..t apart or together, and a relabelling keeps the
    refinement order and the block count.  Refining keeps 1..t apart, so
    the set is an order ideal, and each interval [a, b] in it is the same
    interval of the t0 family: V[b] is the same int in both.  So the level
    totals of t sum V over the members with `_leading_minima` >= t.

    Slot width, with no lemma: by Hall's theorem (Stanley, Enumerative
    Combinatorics I, Prop. 3.8.5), mu(a, b) = sum over k of (-1)^k c_k with
    c_k the number of chains a = x_0 < ... < x_k = b, so |mu(a, b)| is at
    most the number of chains from a to b, and |v_r[b]| at most the number
    of chains that end at b.  A chain holds at most one element of each
    level, so the chains ending on level s number at most
    |level s| * prod over s' < s of (1 + |level s'|), which is below
    bound = prod over all s of (1 + |level s|).  Hence |c(r, s)| < bound <
    2^(w - 1) for w = bound.bit_length() + 1 (`_slot_width`), and c(r, s)
    is the signed w-bit digit r of the level total.  The t0 levels hold
    those of every t, so the t0 width serves every t.  Anything left after
    slots 0..s raises InvariantViolation, when that t's turn comes.
    """
    from .posetcore import build_refinement_poset  # here: the closed triangles need no poset

    first = Params(m, n, min(ts))
    poset = build_refinement_poset(first, max_objects=max_objects)
    sizes = [0] * (first.max_rank + 1)
    for s in poset.ranks:
        sizes[s] += 1
    w = _slot_width(sizes)
    half, mask = 1 << (w - 1), (1 << w) - 1
    solved: Dict[int, int] = {}  # V, by element key
    totals = [[0] * len(sizes) for _ in range(n + 1)]  # by _leading_minima, then level
    for b, (key, s, blocks) in enumerate(zip(poset.keys, poset.ranks, poset.elements)):
        solved[key] = 0
        try:
            solved[key] = value = (1 << (w * s)) - sum(map(solved.__getitem__, poset.down(b)))
        except KeyError:
            raise InvariantViolation(f"a split of {blocks} is not in the family below it") from None
        totals[_leading_minima(blocks)][s] += value
    for t in ts:
        coeffs: Dict[Tuple[int, int], int] = {}
        for s in range(n - t + 1):
            total = sum(row[s] for row in totals[t:])
            for r in range(s + 1):
                coeffs[(r, s)] = digit = ((total + half) & mask) - half
                total = (total - digit) >> w
            if total:
                raise InvariantViolation(
                    f"M-triangle: the level {s} total overflows {s + 1} slots of {w} bits"
                )
        yield t, _wrap(coeffs)


def m_triangle_brute(p: Params, max_objects: int = DEFAULT_MAX_OBJECTS) -> BivariatePolynomial:
    """The brute M-triangle of one triple: the one-t call of `m_triangles_brute`."""
    [(_, poly)] = m_triangles_brute(p.m, p.n, (p.t,), max_objects)
    return poly


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


def _size(poly: BivariatePolynomial) -> Tuple[int, int]:
    """(deg_x, l1 norm) of a polynomial; the l1 norm is the sum of |coefficients|."""
    return poly.max_exponents()[0], sum(abs(c) for c in poly._terms.values())


def _row_data(base, u: RationalExpr, v: RationalExpr, alt_base) -> tuple:
    """(bases, sizes): the fixed data of one `_IDENTITIES` row, computed once at import.

    bases is (base,) or (base, alt_base); sizes holds the (deg_x, l1) of
    u.num, u.den, v.num and v.den, then the largest deg_x and the largest
    l1 over the bases, as `_layout` reads them.
    """
    bases = (base,) if alt_base is None else (base, alt_base)
    base_sizes = [_size(b) for b in bases]
    sizes = (
        tuple(_size(f) for f in (u.num, u.den, v.num, v.den)),
        max(deg for deg, _ in base_sizes),
        max(l1 for _, l1 in base_sizes),
    )
    return bases, sizes


# One `_row_data` per row of _IDENTITIES, in table order.
_ROW_DATA = tuple(_row_data(base, u, v, alt) for _, _, base, _, u, v, alt in _IDENTITIES)


def _layout(lhs_size: Tuple[int, int], source: BivariatePolynomial, d: int, row_sizes) -> tuple:
    """(w, Dx) for lhs * u.den^d v.den^d - base^d * sum c_rs U_r V_s, any base of the row.

    lhs_size is `_size(lhs)`, and row_sizes the sizes of the row's
    `_row_data`.  Dx bounds the x-degree of that difference and every
    |coefficient| of it is below 2^(w - 1); see
    `verify_transformation_identities`.
    """
    lhs_deg, lhs_l1 = lhs_size
    ((un_deg, un), (ud_deg, ud), (vn_deg, vn), (vd_deg, vd)), base_deg, base_l1 = row_sizes
    dx = max(
        lhs_deg + d * (ud_deg + vd_deg),
        d * (base_deg + max(un_deg, ud_deg) + max(vn_deg, vd_deg)),
    )
    u_weights, v_weights = _power_weights(un, ud, d), _power_weights(vn, vd, d)
    image = sum(abs(c) * u_weights[r] * v_weights[s] for (r, s), c in source._terms.items())
    bound = lhs_l1 * u_weights[0] * v_weights[0] + base_l1**d * image
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
    be ints.  The degrees and l1 norms that C and Dx read are taken once:
    those of u, v and the bases at import (`_ROW_DATA`), those of each
    triangle once per call.  `substitute` and `RationalExpr` give the same
    check on polynomials (the test oracle).
    """
    d = p.max_rank
    triangles = {"m": m_triangle_closed(p), "h": h_triangle_closed(p), "f": f_triangle_closed(p)}
    sizes = {name: _size(poly) for name, poly in triangles.items()}
    results = []
    for (name, lhs_name, _, source_name, u, v, _), (bases, row_sizes) in zip(_IDENTITIES, _ROW_DATA):
        lhs, source = triangles[lhs_name], triangles[source_name]
        w, dx = _layout(sizes[lhs_name], source, d, row_sizes)
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
        if len(bases) > 1:
            alt_holds = holds[1]
    return tuple(results), alt_holds
