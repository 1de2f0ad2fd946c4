"""The immutable value classes: equality, hashing, repr, immutability and pickling."""

import pickle

import pytest

from nclab.dyckmodel import DyckPath, PathStats
from nclab.ncpart import BlockProfile, SetPartition
from nclab.nonnest import FilterChain, FlooredPoset, TFilter
from nclab.params import Params
from nclab.polyalg import ONE, X, Y, IdentityReport, RationalExpr
from nclab.posetcore import FinitePoset

TOP = TFilter(3, 1, {(1, 3)})
POSET = FinitePoset(["a", "b"], [(0, 1)], [0, 1])

# (value, an equal value built anew, a value differing in one field, field names)
CASES = [
    (Params(1, 3, 2), Params(m=1, n=3, t=2), Params(1, 3, 1), ("m", "n", "t")),
    (SetPartition(((1, 2), (3,))), SetPartition([[3], [2, 1]]), SetPartition(((1, 3), (2,))), ("blocks",)),
    (BlockProfile((1, 1)), BlockProfile((1, 1)), BlockProfile((3, 0)), ("counts",)),
    (TOP, TFilter(3, 1, [(1, 3)]), TFilter(3, 1, set()), ("n", "t", "pairs")),
    (FilterChain((TOP,)), FilterChain([TOP]), FilterChain((TFilter(3, 1, ()),)), ("filters",)),
    (
        FlooredPoset(POSET, (((0, 1), frozenset({(1, 3)})),), (frozenset(), frozenset({(1, 3)}))),
        FlooredPoset(POSET, (((0, 1), frozenset({(1, 3)})),), (frozenset(), frozenset({(1, 3)}))),
        FlooredPoset(POSET, (), (frozenset(), frozenset())),
        ("poset", "cover_floor", "floors"),
    ),
    (DyckPath("UUDD"), DyckPath("UU" + "DD"), DyckPath("UDUD"), ("steps",)),
    (PathStats(1, 0, 4), PathStats(valleys=1, zero_valleys=0, length=4), PathStats(1, 1, 4),
     ("valleys", "zero_valleys", "length")),
    (RationalExpr(X, Y), RationalExpr(X, Y), RationalExpr(X), ("num", "den")),
    (
        IdentityReport(Params(1, 2, 1), (("f_from_m", True),), True),
        IdentityReport(Params(1, 2, 1), (("f_from_m", True),), True),
        IdentityReport(Params(1, 2, 1), (("f_from_m", True),), False),
        ("params", "results", "alt_prefactor_holds"),
    ),
]
IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("value, same, other, fields", CASES, ids=IDS)
class TestValueClasses:
    def test_equality_and_hash_read_the_fields(self, value, same, other, fields):
        key = tuple(getattr(value, name) for name in fields)
        assert value == same and not value != same
        assert hash(value) == hash(same) == hash(key)
        assert value != other
        assert value != key and value.__eq__(key) is NotImplemented

    def test_repr_lists_the_fields(self, value, same, other, fields):
        shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
        assert repr(value) == f"{type(value).__name__}({shown})"

    def test_assignment_and_deletion_raise(self, value, same, other, fields):
        for name in fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == same

    def test_pickle_round_trip(self, value, same, other, fields):
        restored = pickle.loads(pickle.dumps(value))
        assert type(restored) is type(value)
        assert vars(restored).keys() == vars(value).keys()
        if isinstance(value, FlooredPoset):  # its FinitePoset compares by identity
            assert restored.poset.elements == value.poset.elements
            assert restored.cover_floor == value.cover_floor and restored.floors == value.floors
        else:
            assert restored == value and hash(restored) == hash(value)
        with pytest.raises(AttributeError):
            setattr(restored, fields[0], None)


def test_params_order_is_the_tuple_order():
    triples = [(2, 1, 1), (1, 3, 2), (1, 3, 1), (1, 1, 1)]
    assert sorted(Params(*triple) for triple in triples) == [Params(*tr) for tr in sorted(triples)]
    assert Params(1, 3, 1) < Params(1, 3, 2) <= Params(1, 3, 2) < Params(2, 1, 1)
    assert Params(2, 1, 1) > Params(1, 3, 2) >= Params(1, 3, 2)
    with pytest.raises(TypeError):
        Params(1, 1, 1) < (1, 1, 1)


def test_ground_size_takes_no_part_in_equality():
    part = SetPartition(((1, 2), (3,)))
    assert part.ground_size == 3
    assert SetPartition._trusted(part.blocks, 99) == part
    assert "ground_size" not in repr(part)


def test_derived_state_survives_pickling():
    path = pickle.loads(pickle.dumps(DyckPath("UUDD")))
    assert path.heights() == (0, 1, 2, 1, 0) and path._area == DyckPath("UUDD")._area
    assert pickle.loads(pickle.dumps(TOP)).mask == TOP.mask


def test_rational_expr_denominator_defaults_to_one():
    assert RationalExpr(X).den == ONE
