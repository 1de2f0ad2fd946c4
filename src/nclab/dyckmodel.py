"""Lattice paths with forced initial rises and the filter correspondence.

A path of length 2n consists of up- and down-steps, never dips below the
axis, and returns to it; requiring the first t steps to go up carves out the
family matched with the t-filters.  The correspondence sends the minimal
pairs (i, j) of a filter to path valleys at (i+j-1, j-i-1), and is validated
by exhaustive round-trip, order-isomorphism and counting tests.  Everything
here is immutable and pure.
"""

from functools import lru_cache
from typing import Dict, Iterator, List, Sequence, Tuple

from . import closedform
from .errors import DomainError, InvariantViolation, ParameterError
from .nonnest import TFilter, _filter_from_mask, _tfilter_masks, _universe
from .params import Params, Value, _bits
from .polyalg import BivariatePolynomial


def _walk(steps: str) -> Tuple[Tuple[int, ...], int]:
    """Heights after 0, 1, ..., len(steps) steps, and the area mask of a path.

    Column x of the area mask holds bits x*(n+1) .. x*(n+1) + heights[x] - 1.
    Raises DomainError unless the steps are 'U'/'D', even in number, never
    below the axis and ending on it.
    """
    if set(steps) - {"U", "D"}:
        raise DomainError(f"steps must use only 'U' and 'D', got {steps!r}")
    if len(steps) % 2:
        raise DomainError("a path needs an even number of steps")
    width = len(steps) // 2 + 1
    heights = [0]
    area = h = 0
    for x, step in enumerate(steps, 1):
        h += 1 if step == "U" else -1
        if h < 0:
            raise DomainError(f"path {steps!r} dips below the axis")
        heights.append(h)
        area |= ((1 << h) - 1) << (x * width)
    if h:
        raise DomainError(f"path {steps!r} does not end on the axis")
    return tuple(heights), area


def _valleys(steps: str, heights: Sequence[int]) -> Iterator[Tuple[int, int]]:
    """Each (x, heights[x]) preceded by a down-step and followed by an up-step, by x."""
    x = steps.find("DU") + 1
    while x:
        yield x, heights[x]
        x = steps.find("DU", x) + 1


def _theta_steps(n: int, t: int, mask: int) -> str:
    """Steps of the path with a valley (i+j-1, j-i-1) per minimal pair (i, j) of a t-filter mask.

    Raises InvariantViolation when consecutive valleys have inconsistent
    parity or cannot be joined, or when the path does not start with t rises.
    """
    pairs = (divmod(k, n + 1) for k in _bits(_universe(n).minimal(mask)))
    points = sorted((i + j - 1, j - i - 1) for i, j in pairs) + [(2 * n, 0)]
    runs: List[str] = []
    x, y = 0, 0
    for px, py in points:
        dx, dy = px - x, py - y
        if (dx + dy) % 2 or (dx - dy) % 2:
            raise InvariantViolation(f"valley ({px}, {py}) has inconsistent parity")
        rises, falls = (dx + dy) // 2, (dx - dy) // 2
        if rises < 0 or falls < 0:
            raise InvariantViolation(f"valley list {points} is not realisable")
        runs.append("U" * rises + "D" * falls)
        x, y = px, py
    steps = "".join(runs)
    if not steps.startswith("U" * t):
        members = sorted(_universe(n).pairs_of(mask))
        raise InvariantViolation(f"filter {members} produced the non-conforming path {steps}")
    return steps


def _theta_mask(steps: str, heights: Sequence[int], t: int) -> int:
    """Mask of the t-filter generated by the pairs ((x-y)/2, (x+y)/2 + 1) over the valleys (x, y).

    Raises InvariantViolation on a valley of inconsistent parity and
    DomainError on one that maps outside the pairs (i, j) with j > t.
    """
    universe = _universe(len(steps) // 2)
    mask = 0
    for x, y in _valleys(steps, heights):
        if (x - y) % 2 or (x + y) % 2:
            raise InvariantViolation(f"valley ({x}, {y}) has inconsistent parity")
        pair = ((x - y) // 2, (x + y) // 2 + 1)
        index = universe.index.get(pair)
        if index is None or pair[1] <= t:
            raise DomainError(f"valley ({x}, {y}) maps outside the pair poset")
        mask |= universe.above[index]
    return mask


def _tdyck_steps(n: int, t: int) -> List[str]:
    """Steps of every path of length 2n whose first t steps rise, sorted."""
    if not 1 <= t <= n:
        raise ParameterError(f"need 1 <= t <= n, got t={t}, n={n}")
    paths: List[str] = []
    total = 2 * n

    def extend(prefix: List[str], height: int):
        pos = len(prefix)
        if pos == total:
            paths.append("".join(prefix))
            return
        remaining = total - pos
        if height + 1 <= remaining - 1:
            prefix.append("U")
            extend(prefix, height + 1)
            prefix.pop()
        if height > 0:
            prefix.append("D")
            extend(prefix, height - 1)
            prefix.pop()

    extend(["U"] * t, t)
    return sorted(paths)


class DyckPath(Value):
    """Immutable step sequence over 'U'/'D' with non-negative heights."""

    _fields = ("steps",)

    def __init__(self, steps: str):
        heights, area = _walk(steps)
        vars(self).update(steps=steps, _heights=heights, _area=area)

    @property
    def n(self) -> int:
        return len(self.steps) // 2

    def heights(self) -> Tuple[int, ...]:
        """Heights after 0, 1, ..., 2n steps (stored by the validation walk)."""
        return self._heights

    def starts_with_rises(self, t: int) -> bool:
        return len(self.steps) >= t and set(self.steps[:t]) <= {"U"}

    def __str__(self) -> str:
        return self.steps


def enumerate_tdyck(n: int, t: int) -> Tuple[DyckPath, ...]:
    """All paths of length 2n whose first t steps rise, in stable order."""
    return tuple(DyckPath(s) for s in _tdyck_steps(n, t))


def theta(filt: TFilter) -> DyckPath:
    """Path whose valleys are the minimal pairs of the filter.

    A minimal pair (i, j) lands at the valley (i+j-1, j-i-1); the empty
    filter maps to the single-mountain path.
    """
    return DyckPath(_theta_steps(filt.n, filt.t, filt.mask))


def theta_inverse(path: DyckPath, t: int) -> TFilter:
    """Filter generated by the pairs ((x-y)/2, (x+y)/2 + 1) over the valleys."""
    if not path.starts_with_rises(t):
        raise DomainError(f"path {path} does not start with {t} rises")
    return _filter_from_mask(path.n, t, _theta_mask(path.steps, path.heights(), t))


def ddom_leq(first: DyckPath, second: DyckPath) -> bool:
    """Reverse-dominance comparison: true iff `second` lies weakly below `first`.

    The pointwise-lower path is the larger poset element, so the single
    mountain is the minimum of the order.  Pointwise heights compare as
    inclusion of the stored area masks.
    """
    if len(first.steps) != len(second.steps):
        raise DomainError(
            f"paths have different lengths: {len(first.steps)} vs {len(second.steps)}"
        )
    return not (second._area & ~first._area)


def _area_cells(n: int) -> Dict[int, int]:
    """Bits j-i-1 and j-i of `_walk` area column i+j-1 for each pair (i, j), by filter bit."""
    width = n + 1
    return {k: 0b11 << ((i + j - 1) * width + j - i - 1) for (i, j), k in _universe(n).index.items()}


@lru_cache(maxsize=1)
def _theta_table(n: int) -> Dict[int, str]:
    """Steps of theta(f) by mask, for each 1-filter f whose image passes the per-filter checks.

    The checks, run once per n for every t: `_theta_steps` (parity and
    realisability), `_walk` (a path), the round trip through `_theta_mask`,
    and the area identity area(theta f) == M ^ C(f) of `bijection_verdicts`.
    By up-closure, row i of a filter, its pairs (i, j), is a suffix
    j > c of that row; so C(f) is the OR of one lookup per row i = 1..n-1
    in a table that maps each suffix pattern of row i to the OR of its
    pairs' `_area_cells`.  A row that is no suffix misses and leaves f out,
    so the cover read is C of f itself.  The table is held until the next n.
    """
    width = n + 1
    mountain, cells = _walk("U" * n + "D" * n)[1], _area_cells(n)
    rows = []
    for i in range(1, n):
        suffixes, pattern, cover = {0: 0}, 0, 0
        for j in range(n, i, -1):
            pattern |= 1 << j
            cover |= cells[i * width + j]
            suffixes[pattern] = cover
        rows.append((i * width, suffixes))
    row_mask = (1 << width) - 1
    images: Dict[int, str] = {}
    for mask in _tfilter_masks(n, 1):
        try:
            cover = 0
            for shift, suffixes in rows:
                cover |= suffixes[(mask >> shift) & row_mask]
        except KeyError:
            continue
        steps = _theta_steps(n, 1, mask)
        heights, area = _walk(steps)
        if _theta_mask(steps, heights, 1) == mask and area ^ mountain == cover:
            images[mask] = steps
    return images


def bijection_verdicts(n: int, ts: Sequence[int]) -> Iterator[Tuple[int, bool]]:
    """(t, whether theta is an order isomorphism from the t-filters onto the t-paths) per t of ts.

    Runs on filter masks and step strings, through the helpers behind theta,
    theta_inverse and DyckPath.  Checks both family sizes against the closed
    total count; that each image is a path (`_walk`) starting with t rises,
    with the parity and realisability checks of `_theta_steps`; the round
    trip theta_inverse(theta(f)) == f on masks; that the images are distinct
    and are exactly the paths of the independent `_tdyck_steps`, so
    theta(theta_inverse(path)) == path too; and the area identity
    area(theta f) == M ^ C(f), where M is the area of U^n D^n and C(f) the
    OR of the `_area_cells` of the pairs of f.

    The paths are enumerated once, at t0 = min(ts).  The t-paths are, by
    definition, the paths of length 2n whose first t steps rise; each t
    keeps those of the t0 enumeration, whose order (sorted) it keeps.  The
    enumeration does not read theta.  The images are distinct and are
    exactly the t-paths iff, sorted, they equal them and rise strictly; an
    image that lacks the t rises is no t-path, and a filter with no image
    gets "", which no path equals.  Sorting holds no set.

    The per-filter checks run once per n, over the 1-filters, in
    `_theta_table`; each t-filter only looks its image up.  That is the
    same check at every t:

    * The t-filters are exactly the 1-filters with no pair in a column
      j <= t.  T_{n,t} is an up-set of T_n ((i, j) <= (k, l) gives
      l >= j > t), so an up-set of T_{n,t} is an up-set of T_n; and a
      1-filter inside T_{n,t} is up-closed there.
    * `_theta_steps`, `_walk` and the area identity do not read t, beyond
      the leading rises, which the comparison with the t-paths checks.  `_theta_mask` at t gives the mask
      it gives at 1, but refuses a valley that maps to a pair (i, j) with
      j <= t.  Such a pair lies in the round-trip mask at 1, and the
      t-filter f holds no pair in that column, so the round trip fails and
      f has no image in the table: f fails either way.

    The identity proves the order.  The cell of (i, j) starts at (x, y) =
    (i+j-1, j-i-1), which gives back (i, j) = ((x-y)/2, (x+y)/2 + 1), the
    pair `_theta_mask` reads off a valley; as y = x mod 2, the cells are
    disjoint aligned two-bit blocks, so f <= g iff C(f) <= C(g).  The top
    bit y+1 = j-i is below min(x, 2n-x), the height of M at x, as i >= 1
    and j <= n; so C(f) <= M, area(theta f) = M - C(f), and C(f) <= C(g)
    iff area(theta g) <= area(theta f), i.e. ddom_leq(theta f, theta g).
    A True verdict thus implies the all-pairs comparison that
    tests/oracles.py::bijection_literal runs on TFilter and DyckPath objects.
    """
    every = _tdyck_steps(n, min(ts))
    for t in ts:
        rises = "U" * t
        paths = [steps for steps in every if steps.startswith(rises)]
        masks = _tfilter_masks(n, t)
        ok = len(masks) == len(paths) == closedform.total_count(Params(1, n, t))
        if ok:
            table = _theta_table(n)
            images = [table.get(mask, "") for mask in masks]
            images.sort()  # in place: no second list of the family's size
            ok = images == paths and all(map(str.__lt__, images, images[1:]))
        yield t, ok


def h_via_paths(n: int, t: int) -> BivariatePolynomial:
    """Generating polynomial of (valleys, zero-height valleys) over the paths.

    Reads the step strings of `_tdyck_steps` with `_walk` and `_valleys`,
    as `bijection_verdicts` does; builds no DyckPath.
    """
    coeffs: Dict[Tuple[int, int], int] = {}
    for steps in _tdyck_steps(n, t):
        heights = _walk(steps)[0]
        valleys = [y for _, y in _valleys(steps, heights)]
        key = (len(valleys), valleys.count(0))
        coeffs[key] = coeffs.get(key, 0) + 1
    return BivariatePolynomial(coeffs)
