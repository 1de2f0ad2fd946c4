"""No enumeration or poset outlives the call that built it.

A long sweep builds one family per (m, n, t); if any entry point kept its
result at module level, memory would grow with every triple.  Each check
holds only a weak reference to one element of a result (or to the result
itself, where its elements are plain tuples, which take none), drops the
result and collects: the referent must then be gone.  Nor may the
enumeration keep its working tables: after a warm-up, repeated calls leave
next to nothing traced behind, and a census holds only the tables that
are read again, never the family.  A refinement poset drops each run's split keys once a pass
in level order is done with them.  The filter-chain tables keep only the
one in use, the filter list is built without a transient much larger
than itself, a chain family is one int per chain, and the Lemma 5.4
certificate holds no bitset over the chains.
"""

import gc
import sys
import tracemalloc
import weakref

import pytest

from nclab import nonnest
from nclab.dyckmodel import enumerate_tdyck
from nclab.ncpart import census, enumerate_nc
from nclab.nonnest import chain_counts, enumerate_nn, nn_poset
from nclab.params import Params
from nclab.posetcore import build_refinement_poset

P = Params(2, 3, 2)

RESULTS = {  # each builds a result and returns what the check refers to
    "enumerate_nc": lambda: enumerate_nc(P)[-1],
    # Its elements are block tuples, so the check refers to the poset itself.
    "build_refinement_poset": lambda: build_refinement_poset(P),
    "enumerate_nn": lambda: enumerate_nn(P)[-1],
    "nn_poset": lambda: nn_poset(P).poset.elements[-1],
    "enumerate_tdyck": lambda: enumerate_tdyck(P.n, P.t)[-1],
}


def result_ref(build):
    # Called in its own frame so that no local keeps the result alive.
    return weakref.ref(build())


@pytest.mark.parametrize("name", sorted(RESULTS))
def test_result_dies_with_its_caller(name):
    ref = result_ref(RESULTS[name])
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


def census_peak(triple):
    assert census(P, "rank")
    gc.collect()
    tracemalloc.start()
    try:
        assert census(Params(*triple), "rank")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_census_holds_only_the_gap_tables():
    # Measured under tracemalloc at (1,11,1) on CPython 3.10 and 3.11: the
    # census peaks at 1.61 MB, 3.36 MB when every gap table was stored, and
    # its shapes kept in a list at 7.08 MB.  The 2.2 MB bound leaves the
    # census 0.59 MB of margin and sits 1.16 MB below the census that
    # stored them all.
    peak = census_peak((1, 11, 1))
    assert peak < 2_200_000, f"the census peaked at {peak} bytes"


def test_census_builds_only_t_partitions():
    # Measured as above at (2,8,3): the census peaks at 0.72 MB, and at
    # 2.55 MB when it also built the classical shapes that put two of 1..t
    # in one block and stored every gap table; the shapes kept in a list
    # take 2.84 MB.  The 1.2 MB bound leaves 0.48 MB of margin.
    peak = census_peak((2, 8, 3))
    assert peak < 1_200_000, f"the census peaked at {peak} bytes"


def test_refinement_poset_keeps_no_order_table():
    # Measured under tracemalloc at (1,10,1), 16,796 elements, on CPython
    # 3.11: the poset retains 3.5 MB (its block tuples, ranks and key
    # index), 7.5 MB when its elements were SetPartition objects, and
    # 33.8 MB when it also stored one down-mask per element.  The 6 MB bound
    # sits below both.
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
    assert retained < 6_000_000, f"the poset retained {retained} bytes"


def test_refinement_poset_releases_read_splits():
    # Measured under tracemalloc at (1,10,1) on CPython 3.11: after down(b)
    # for every b in level order the poset retains 5.0 MB, the split keys of
    # the top element's block and its gaps among them, against 13.9 MB (10.5
    # MB of split keys) when every run's keys stayed for the poset's life.
    assert build_refinement_poset(P)
    gc.collect()
    tracemalloc.start()
    try:
        poset = build_refinement_poset(Params(1, 10, 1))
        for b in range(len(poset)):
            poset.down(b)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 6_000_000, f"the poset retained {retained} bytes after one pass"
    # A released run read again is rebuilt to the same keys: a second pass,
    # here top down, lists what a fresh poset lists in level order.
    fresh = build_refinement_poset(Params(1, 10, 1))
    expected = [fresh.down(b) for b in range(len(fresh))]
    assert [poset.down(b) for b in reversed(range(len(poset)))] == expected[::-1]


def test_certificate_peaks_below_the_down_set_oracle():
    # Measured under tracemalloc at (2,6,1), 1,428 chains, on CPython 3.11:
    # the prefix-bitset certificate peaks at 0.05 MB on the generator's key
    # list, 0.12 MB when it built a sorted key list of its own from mask
    # tuples, and the |F|-bit down-set certificate it replaced
    # (tests/oracles.py) at 0.36 MB.
    family = nonnest._generate_chains(2, 6, 1, "paper", 10**6)
    nonnest._filter_order.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        assert sum(1 for _ in nonnest._certify_covers(2, 6, family)) == len(family)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 250_000, f"the certificate peaked at {peak} bytes"


def test_chain_family_is_one_int_per_chain():
    # The generator's keys are the family every reader takes: no tuple of
    # component masks per chain.
    family = nonnest._raw_chains(Params(2, 6, 1), "paper", 10**6)
    assert type(family) is list and len(family) == 1428
    assert all(type(key) is int for key in family)


def test_height_tables_keep_only_the_table_in_use():
    # Adapted rows generate one family per t, each with tables of its own:
    # over t = 1..n only the last stays.
    nonnest._height_tables.cache_clear()
    assert [t for t, _ in chain_counts(2, 6, range(1, 7), "adapted")] == list(range(1, 7))
    assert nonnest._height_tables.cache_info().currsize == 1


def test_filter_masks_peak_below_twice_their_size():
    # Measured under tracemalloc at n = 11 on CPython 3.11: 3.8 MB peak for
    # 2.9 MB of masks (tuple and ints), and 7.9 MB when every prefix was a
    # (last entry, mask) tuple.
    nonnest._tfilter_masks.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        masks = nonnest._tfilter_masks(11, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sys.getsizeof(masks) + sum(map(sys.getsizeof, masks))
    assert len(masks) == 58786
    assert peak < 2 * size, f"the masks peaked at {peak} bytes for {size}"
