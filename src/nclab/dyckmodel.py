"""Lattice paths with forced initial rises and the filter correspondence.

A path of length 2n consists of up- and down-steps, never dips below the
axis, and returns to it; requiring the first t steps to go up carves out the
family matched with the t-filters.  The correspondence sends the minimal
pairs (i, j) of a filter to path valleys at (i+j-1, j-i-1), and is validated
by exhaustive round-trip, order-isomorphism and counting tests.  Everything
here is immutable and pure.
"""

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Tuple

from . import closedform
from .errors import DomainError, InvariantViolation, ParameterError
from .nonnest import TFilter, _universe, all_t_filters
from .params import Params
from .polyalg import BivariatePolynomial


@dataclass(frozen=True)
class DyckPath:
    """Immutable step sequence over 'U'/'D' with non-negative heights."""

    steps: str

    def __post_init__(self):
        if set(self.steps) - {"U", "D"}:
            raise DomainError(f"steps must use only 'U' and 'D', got {self.steps!r}")
        if len(self.steps) % 2:
            raise DomainError("a path needs an even number of steps")
        height = 0
        for step in self.steps:
            height += 1 if step == "U" else -1
            if height < 0:
                raise DomainError(f"path {self.steps!r} dips below the axis")
        if height != 0:
            raise DomainError(f"path {self.steps!r} does not end on the axis")

    @property
    def n(self) -> int:
        return len(self.steps) // 2

    @property
    def length(self) -> int:
        return len(self.steps)

    def heights(self) -> Tuple[int, ...]:
        """Heights after 0, 1, ..., 2n steps."""
        out = [0]
        h = 0
        for step in self.steps:
            h += 1 if step == "U" else -1
            out.append(h)
        return tuple(out)

    def starts_with_rises(self, t: int) -> bool:
        return len(self.steps) >= t and set(self.steps[:t]) <= {"U"}

    def to_json_dict(self, t: int = None) -> dict:
        data = {"n": self.n}
        if t is not None:
            data["t"] = t
        data["steps"] = self.steps
        return data

    def to_json(self, t: int = None) -> str:
        return json.dumps(self.to_json_dict(t), separators=(",", ":"))

    def __str__(self) -> str:
        return self.steps


@dataclass(frozen=True)
class PathStats:
    """Turning-point counts: valleys, peaks, valleys at height zero, length."""

    valleys: int
    peaks: int
    zero_valleys: int
    length: int


def valley_coords(path: DyckPath) -> Tuple[Tuple[int, int], ...]:
    """Coordinates preceded by a down-step and followed by an up-step."""
    heights = path.heights()
    steps = path.steps
    return tuple(
        (x, heights[x])
        for x in range(1, len(steps))
        if steps[x - 1] == "D" and steps[x] == "U"
    )


def peak_coords(path: DyckPath) -> Tuple[Tuple[int, int], ...]:
    """Coordinates preceded by an up-step and followed by a down-step."""
    heights = path.heights()
    steps = path.steps
    return tuple(
        (x, heights[x])
        for x in range(1, len(steps))
        if steps[x - 1] == "U" and steps[x] == "D"
    )


def path_stats(path: DyckPath) -> PathStats:
    valleys = valley_coords(path)
    peaks = peak_coords(path)
    return PathStats(
        valleys=len(valleys),
        peaks=len(peaks),
        zero_valleys=sum(1 for _, y in valleys if y == 0),
        length=path.length,
    )


@lru_cache(maxsize=None)
def _tdyck_cached(n: int, t: int) -> Tuple[DyckPath, ...]:
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

    start = ["U"] * t
    extend(start, t)
    return tuple(DyckPath(s) for s in sorted(paths))


def enumerate_tdyck(n: int, t: int) -> Tuple[DyckPath, ...]:
    """All paths of length 2n whose first t steps rise, in stable order."""
    if not 1 <= t <= n:
        raise ParameterError(f"need 1 <= t <= n, got t={t}, n={n}")
    return _tdyck_cached(n, t)


def _path_from_valleys(n: int, valleys: Iterable[Tuple[int, int]]) -> DyckPath:
    points = sorted(valleys) + [(2 * n, 0)]
    steps: List[str] = []
    x, y = 0, 0
    for px, py in points:
        dx, dy = px - x, py - y
        if (dx + dy) % 2 or (dx - dy) % 2:
            raise InvariantViolation(f"valley ({px}, {py}) has inconsistent parity")
        rises, falls = (dx + dy) // 2, (dx - dy) // 2
        if rises < 0 or falls < 0:
            raise InvariantViolation(f"valley list {points} is not realisable")
        steps.extend("U" * rises)
        steps.extend("D" * falls)
        x, y = px, py
    return DyckPath("".join(steps))


def theta(filt: TFilter) -> DyckPath:
    """Path whose valleys are the minimal pairs of the filter.

    A minimal pair (i, j) lands at the valley (i+j-1, j-i-1); the empty
    filter maps to the single-mountain path.
    """
    valleys = [(i + j - 1, j - i - 1) for (i, j) in filt.min_elements()]
    path = _path_from_valleys(filt.n, valleys)
    if not path.starts_with_rises(filt.t):
        raise InvariantViolation(
            f"filter {sorted(filt.pairs)} produced the non-conforming path {path}"
        )
    return path


def theta_inverse(path: DyckPath, t: int) -> TFilter:
    """Filter generated by the pairs ((x-y)/2, (x+y)/2 + 1) over the valleys."""
    if not path.starts_with_rises(t):
        raise DomainError(f"path {path} does not start with {t} rises")
    n = path.n
    universe = _universe(n)
    mask = 0
    for x, y in valley_coords(path):
        if (x - y) % 2 or (x + y) % 2:
            raise InvariantViolation(f"valley ({x}, {y}) has inconsistent parity")
        pair = ((x - y) // 2, (x + y) // 2 + 1)
        index = universe.index.get(pair)
        if index is None or pair[1] <= t:
            raise DomainError(f"valley ({x}, {y}) maps outside the pair poset")
        mask |= universe.up_masks[index]
    return TFilter(n, t, universe.pairs_of(mask))


def ddom_leq(first: DyckPath, second: DyckPath) -> bool:
    """Reverse-dominance comparison: true iff `second` lies weakly below `first`.

    The pointwise-lower path is the larger poset element, so the single
    mountain is the minimum of the order.
    """
    if first.length != second.length:
        raise DomainError(
            f"paths have different lengths: {first.length} vs {second.length}"
        )
    return all(b <= a for a, b in zip(first.heights(), second.heights()))


def bijection_holds(n: int, t: int) -> bool:
    """True iff theta is an order isomorphism from the t-filters onto the paths.

    Checks both family sizes against the closed total count, both round trips,
    that the images are exactly the paths, and that filter inclusion is
    reverse dominance of the images.
    """
    filters = all_t_filters(n, t)
    paths = enumerate_tdyck(n, t)
    images = [theta(filt) for filt in filters]
    return (
        len(filters) == len(paths) == closedform.total_count(Params(1, n, t))
        and all(theta_inverse(path, t) == filt for filt, path in zip(filters, images))
        and len(set(images)) == len(filters)
        and set(images) == set(paths)
        and all(theta(theta_inverse(path, t)) == path for path in paths)
        and all(
            (fa.pairs <= fb.pairs) == ddom_leq(pa, pb)
            for fa, pa in zip(filters, images)
            for fb, pb in zip(filters, images)
        )
    )


def h_via_paths(n: int, t: int) -> BivariatePolynomial:
    """Generating polynomial of (valleys, zero-height valleys) over the paths."""
    coeffs: Dict[Tuple[int, int], int] = {}
    for path in enumerate_tdyck(n, t):
        stats = path_stats(path)
        key = (stats.valleys, stats.zero_valleys)
        coeffs[key] = coeffs.get(key, 0) + 1
    return BivariatePolynomial(coeffs)
