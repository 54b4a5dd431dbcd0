import re
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weakschur import IntSet
from weakschur.intset import bit_positions, halve, run_bounds

small_sets = st.lists(st.integers(min_value=1, max_value=500), max_size=80)


def test_basic_construction():
    s = IntSet([3, 1, 2, 3])
    assert s.elements == (1, 2, 3)
    assert len(s) == 3
    assert list(s) == [1, 2, 3]
    assert 2 in s
    assert 4 not in s
    assert s.min == 1
    assert s.max == 3


def test_empty():
    s = IntSet()
    assert len(s) == 0
    assert not s
    assert s.max is None
    assert list(s) == []
    assert 1 not in s


def test_rejects_non_positive():
    with pytest.raises(ValueError, match="got 0$"):
        IntSet([0, 1])
    with pytest.raises(ValueError, match="got -3$"):
        IntSet([-3])
    # the error names the smallest element, wherever it sits
    with pytest.raises(ValueError, match="got -7$"):
        IntSet([4, 0, -7, 9, -2])


def test_rejects_non_integers():
    with pytest.raises(TypeError):
        IntSet([1.5])


def test_membership_is_type_tolerant():
    s = IntSet([1, 2])
    assert "x" not in s
    assert -1 not in s
    assert 10**9 not in s


def test_mask_matches_elements():
    s = IntSet([1, 5, 9])
    assert s.mask == (1 << 1) | (1 << 5) | (1 << 9)


def test_from_mask_round_trip():
    s = IntSet([2, 7, 300])
    assert IntSet.from_mask(s.mask) == s
    assert IntSet.from_mask(0) == IntSet()


def test_from_mask_rejects_bit_zero():
    with pytest.raises(ValueError):
        IntSet.from_mask(1)
    with pytest.raises(ValueError):
        IntSet.from_mask(-2)


def test_union_of_sets_and_iterables():
    a = IntSet([1, 2])
    b = IntSet([2, 9])
    assert a.union(b) == IntSet([1, 2, 9])
    assert a.union([5]) == IntSet([1, 2, 5])
    assert a.union([4]) == IntSet([1, 2, 4])
    assert a.union([2]) == a
    with pytest.raises(ValueError):
        a.union([0])


def test_equality_and_hash():
    assert IntSet([1, 2]) == IntSet((2, 1))
    assert hash(IntSet([1, 2])) == hash(IntSet([1, 2]))
    assert IntSet([1]) != IntSet([2])
    assert IntSet([1]) != (1,)


def test_repr_small_and_large():
    assert repr(IntSet([1, 2])) == "IntSet({1, 2})"
    big = IntSet(range(1, 50))
    assert "len=49" in repr(big)


@given(small_sets)
def test_iteration_sorted_and_unique(elems):
    s = IntSet(elems)
    out = list(s)
    assert out == sorted(set(elems))
    assert all(e in s for e in out)


def expected_repr(members):
    elems = sorted(members)
    if len(elems) <= 12:
        return "IntSet({" + ", ".join(map(str, elems)) + "})"
    head = ", ".join(map(str, elems[:6]))
    return f"IntSet({{{head}, ...}} len={len(elems)} max={elems[-1]})"


def assert_views_match(s, members):
    elems = sorted(members)
    assert s.elements == tuple(elems)
    assert list(s) == elems
    assert len(s) == len(members) == s.mask.bit_count()
    assert bool(s) == bool(members)
    assert s.min == (elems[0] if elems else None)
    assert s.max == (elems[-1] if elems else None)
    top = elems[-1] if elems else 0
    for k in range(-1, top + 3):
        assert (k in s) == (k in members)
    assert repr(s) == expected_repr(members)


@given(small_sets, small_sets, st.integers(min_value=1, max_value=600))
def test_mask_and_tuple_views_agree(elems, more, x):
    s = IntSet(elems)
    assert IntSet.from_mask(s.mask).elements == s.elements
    assert_views_match(s, set(elems))
    assert_views_match(IntSet.from_mask(s.mask), set(elems))
    assert_views_match(s.union(IntSet(more)), set(elems) | set(more))
    assert_views_match(s.union(more), set(elems) | set(more))
    assert_views_match(s.union([x]), set(elems) | {x})


def test_mask_is_the_only_state():
    assert IntSet.__slots__ == ("_mask",)
    assert not hasattr(IntSet([1, 2]), "buffer")


def test_wide_sets_cost_their_mask_alone():
    # 400000 members: an element tuple alone would take about 14 MB
    mask = (1 << 400001) - 2
    tracemalloc.start()
    try:
        s = IntSet.from_mask(mask)
        _, peak = tracemalloc.get_traced_memory()
        assert peak < 1_000_000
        tracemalloc.reset_peak()
        t = s.union([400002])
        _, peak = tracemalloc.get_traced_memory()
        assert peak < 1_000_000
    finally:
        tracemalloc.stop()
    assert len(t) == 400001 and t.max == 400002


# --- bit_positions: a sparse and a dense decoder, chosen from the mask ----

def naive_positions(mask):
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def mask_of(positions):
    return sum(1 << k for k in set(positions))


def test_bit_positions_empty_and_single_bits():
    assert bit_positions(0) == []
    for k in (0, 1, 7, 8, 9, 63, 64, 1023, 1024, 10**5):
        assert bit_positions(1 << k) == [k]


@given(st.integers(min_value=0, max_value=2**3000))
def test_bit_positions_matches_naive(mask):
    assert bit_positions(mask) == naive_positions(mask)


# a 10^5-bit mask with at most 60 bits set: the sparse decoder's side
@given(st.sets(st.integers(min_value=0, max_value=10**5 - 1), max_size=60))
def test_bit_positions_wide_sparse(positions):
    positions.add(10**5)
    assert bit_positions(mask_of(positions)) == sorted(positions)


# at least two bits in each of 32 or more bytes: the bytewise decoder's side
@given(st.lists(st.sampled_from([b for b in range(256) if b.bit_count() >= 2]),
                min_size=32, max_size=3000))
def test_bit_positions_dense(data):
    mask = int.from_bytes(bytes(data), "little")
    assert mask.bit_count() >= 2 * len(data)
    assert bit_positions(mask) == naive_positions(mask)


@given(st.sets(st.integers(min_value=0, max_value=2000)
               .flatmap(lambda k: st.sampled_from([8 * k - 1, 8 * k, 8 * k + 1]))
               .filter(lambda k: k >= 0), max_size=40))
def test_bit_positions_byte_boundaries(positions):
    assert bit_positions(mask_of(positions)) == sorted(positions)


@given(st.sets(st.integers(min_value=1, max_value=10**5), max_size=60),
       st.lists(st.integers(min_value=1, max_value=255), max_size=200))
def test_from_mask_round_trips_sparse_and_dense(positions, data):
    dense = int.from_bytes(bytes(data), "little") << 1
    cases = ((mask_of(positions), sorted(positions)), (dense, naive_positions(dense)))
    for mask, expected in cases:
        s = IntSet.from_mask(mask)
        assert s.elements == tuple(expected)
        assert IntSet(s.elements).mask == mask


# --- run_bounds: one decode of the edges of every run ---------------------

def naive_runs(mask):
    """(starts, stops) of the runs of 1s in mask's binary digits, low bit first."""
    runs = [m.span() for m in re.finditer("1+", format(mask, "b")[::-1])]
    return [a for a, _ in runs], [b for _, b in runs]


@given(st.integers(min_value=0, max_value=2**3000))
def test_run_bounds_matches_naive(mask):
    assert run_bounds(mask) == naive_runs(mask)


# few long runs over a wide mask: their edges take the sparse decoder
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=10**5),
                          st.integers(min_value=1, max_value=3000)), max_size=30))
def test_run_bounds_of_long_runs(runs):
    mask = 0
    for lo, length in runs:
        mask |= ((1 << length) - 1) << lo
    starts, stops = run_bounds(mask)
    assert (starts, stops) == naive_runs(mask)
    assert sum(((1 << b) - (1 << a) for a, b in zip(starts, stops))) == mask


# --- halve: the even bits of a mask, by two byte tables -------------------

@given(st.integers(min_value=0, max_value=2**5000))
def test_halve_keeps_the_even_bits(mask):
    expected = sum(1 << (k // 2) for k in naive_positions(mask) if k % 2 == 0)
    assert halve(mask) == expected


@given(st.sets(st.integers(min_value=0, max_value=4000)
               .flatmap(lambda k: st.sampled_from([8 * k - 2, 8 * k - 1, 8 * k, 8 * k + 1]))
               .filter(lambda k: k >= 0), max_size=40))
def test_halve_at_byte_boundaries(positions):
    # odd and even byte counts, and bits on either side of each byte border
    assert halve(mask_of(positions)) == mask_of({k // 2 for k in positions if k % 2 == 0})
