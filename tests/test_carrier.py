import pytest
from hypothesis import given, strategies as st

from fingroups import (
    Carrier,
    ElemSet,
    full_set,
    set_of,
    singleton,
)
from fingroups.errors import CarrierMismatch, PointOutOfRange

C6 = Carrier(6)


def bitset(points):
    return set_of(C6, points)


def test_membership_and_card():
    a = bitset([0, 3])
    assert 0 in a and 3 in a
    assert 1 not in a
    assert a.card == 2
    assert len(a) == 2
    assert list(a) == [0, 3]  # iteration is ascending
    assert singleton(C6, 5).indices() == (5,)
    assert full_set(C6).card == 6


def test_subset():
    assert bitset([0, 3]).issubset(bitset([0, 1, 3]))
    assert not bitset([0, 3]).issubset(bitset([0, 1, 2]))
    assert ElemSet(C6, 0).issubset(bitset([4]))
    assert bitset([2]).issubset(bitset([2]))


def test_carrier_mismatch_rejected():
    with pytest.raises(CarrierMismatch):
        bitset([0]).issubset(set_of(Carrier(7), [0]))


def test_out_of_range_points_rejected():
    with pytest.raises(PointOutOfRange):
        set_of(C6, [6])
    with pytest.raises(PointOutOfRange):
        singleton(C6, -1)


bits6 = st.integers(min_value=0, max_value=63)


@given(bits6, bits6)
def test_subset_iff_union_absorbs(x, y):
    a, b = ElemSet(C6, x), ElemSet(C6, y)
    assert a.issubset(b) == (set(a) | set(b) == set(b))


@given(bits6)
def test_iteration_sorted_and_consistent(x):
    a = ElemSet(C6, x)
    pts = list(a)
    assert pts == sorted(pts)
    assert all(p in a for p in pts)
    assert len(pts) == a.card


def test_array_views_are_read_only():
    a = bitset([1, 4])
    with pytest.raises(ValueError):
        a.as_array()[0] = 2
    with pytest.raises(ValueError):
        a.mask()[0] = True
    assert a.as_array().tolist() == [1, 4]
    assert a.mask().tolist() == [False, True, False, False, True, False]
