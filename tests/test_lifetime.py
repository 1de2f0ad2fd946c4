"""No enumeration or poset outlives the call that built it.

A long sweep builds one family per (m, n, t); if any entry point kept its
result at module level, memory would grow with every triple.  Each check
holds only a weak reference to one element of a result, drops the result
and collects: the element must then be gone.  Nor may the enumeration keep
its working tables: after a warm-up, repeated calls leave next to nothing
traced behind, and a census holds only those tables, never the family.
"""

import gc
import tracemalloc
import weakref

import pytest

from nclab.dyckmodel import enumerate_tdyck
from nclab.ncpart import census, enumerate_nc
from nclab.nonnest import enumerate_nn, nn_poset
from nclab.params import Params
from nclab.posetcore import build_refinement_poset

P = Params(2, 3, 2)

RESULTS = {
    "enumerate_nc": lambda: enumerate_nc(P),
    "build_refinement_poset": lambda: build_refinement_poset(P).elements,
    "enumerate_nn": lambda: enumerate_nn(P),
    "nn_poset": lambda: nn_poset(P).poset.elements,
    "enumerate_tdyck": lambda: enumerate_tdyck(P.n, P.t),
}


def element_ref(build):
    # Called in its own frame so that no local keeps the result alive.
    elements = build()
    assert elements
    return weakref.ref(elements[-1])


@pytest.mark.parametrize("name", sorted(RESULTS))
def test_result_dies_with_its_caller(name):
    ref = element_ref(RESULTS[name])
    gc.collect()
    assert ref() is None, f"{name} kept its result after the call"


def test_enumeration_keeps_no_tables():
    # The warm-up fills the imports and lazy state of a first call; the
    # three triples after it need tables of their own, which must not stay.
    assert enumerate_nc(P)
    gc.collect()
    tracemalloc.start()
    try:
        for triple in ((1, 9, 1), (2, 5, 2), (3, 4, 1)):
            assert enumerate_nc(Params(*triple))
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 500_000, f"{retained} bytes stayed after the calls"


def test_census_holds_only_the_gap_tables():
    # Measured under tracemalloc at (1,11,1) on CPython 3.11: the census
    # peaks at 3.4 MB, its shapes kept in a list at 8.9 MB and enumerate_nc
    # at 14.1 MB.  The 6 MB bound leaves the census 2.6 MB of margin and
    # sits 2.9 MB below any census that materialises the family.
    assert census(P, "rank")
    gc.collect()
    tracemalloc.start()
    try:
        assert census(Params(1, 11, 1), "rank")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000, f"the census peaked at {peak} bytes"


def test_refinement_poset_keeps_no_order_table():
    # Measured under tracemalloc at (1,10,1), 16,796 elements, on CPython
    # 3.11: the poset retains 7.5 MB (its partitions, ranks and key index)
    # and 33.8 MB when it also stores one down-mask per element.  The 15 MB
    # bound sits between the two.
    assert build_refinement_poset(P)
    gc.collect()
    tracemalloc.start()
    try:
        poset = build_refinement_poset(Params(1, 10, 1))
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(poset) == 16796
    assert retained < 15_000_000, f"the poset retained {retained} bytes"
