"""The parameter triple (m, n, t) shared by all object families.

m is the block-divisibility parameter, n the size parameter (the ground set
is {1, ..., m*n}), and t the number of initially separated elements.

`Value` is the base of the package's immutable value classes; `_bits` is
the one bit iterator and `VARIANTS` the chain variants.
"""

from functools import total_ordering
from operator import attrgetter
from typing import Iterator

from .errors import ParameterError

VARIANTS = ("paper", "adapted")


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Value:
    """Immutable value compared by the fields named in `_fields`, like a frozen dataclass.

    A subclass's __init__ stores its fields, and any state derived from them,
    with `vars(self).update`.  Values are equal iff of one class with equal
    fields; hash and repr read the same fields.  Assigning or deleting an
    attribute raises AttributeError.  Pickling restores the instance dict.
    """

    _fields = ()

    def __init_subclass__(cls):
        # Eq and hash call the class's field getter directly; a bound
        # helper method in between about doubled their cost.
        get = attrgetter(*cls._fields)  # a tuple for two fields or more

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        if len(cls._fields) > 1:
            def __hash__(self) -> int:
                return hash(get(self))
        else:  # still the hash of the field tuple
            def __hash__(self) -> int:
                return hash((get(self),))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class Params(Value):
    """Immutable, validated parameter triple with m >= 1 and 1 <= t <= n, ordered as (m, n, t)."""

    _fields = ("m", "n", "t")

    def __init__(self, m: int, n: int, t: int):
        for name, value in (("m", m), ("n", n), ("t", t)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if m < 1:
            raise ParameterError(f"m must be at least 1, got {m}")
        if n < 1:
            raise ParameterError(f"n must be at least 1, got {n}")
        if not 1 <= t <= n:
            raise ParameterError(f"t must satisfy 1 <= t <= n, got t={t} with n={n}")
        vars(self).update(m=m, n=n, t=t)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.m, self.n, self.t) < (other.m, other.n, other.t)
        return NotImplemented

    @property
    def ground_size(self) -> int:
        """Size of the partitioned set, m*n."""
        return self.m * self.n

    @property
    def max_rank(self) -> int:
        """Top rank n - t of the refinement order."""
        return self.n - self.t
