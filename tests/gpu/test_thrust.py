"""Thrust-style primitives: results and device charging."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gpu import thrust
from repro.gpu.device import VirtualDevice


@pytest.fixture
def dev():
    return VirtualDevice()


def test_reduce_sum(dev):
    a = np.arange(10.0)
    assert thrust.reduce_sum(dev, a) == pytest.approx(45.0)
    assert "thrust::reduce" in dev.stats()


def test_reduce_sum_without_device():
    assert thrust.reduce_sum(None, np.ones(3)) == pytest.approx(3.0)


def test_masked_sum(dev):
    a = np.array([1.0, 2.0, 3.0])
    mask = np.array([False, True, True])
    assert thrust.masked_sum(dev, a, mask) == 5.0
    assert dev.stats()["thrust::inner_product"].bytes_moved == 3 * 16


def test_minmax(dev):
    lo, hi = thrust.minmax(dev, np.array([3.0, -1.0, 7.0]))
    assert (lo, hi) == (-1.0, 7.0)


def test_minmax_empty_rejected(dev):
    with pytest.raises(ValueError):
        thrust.minmax(dev, np.empty(0))


def test_exclusive_scan_is_compaction_index(dev):
    flags = np.array([1, 0, 1, 1, 0, 1])
    scan = thrust.exclusive_scan(dev, flags)
    np.testing.assert_array_equal(scan, [0, 1, 1, 2, 3, 3])
    # surviving element k lands at slot scan[k]
    slots = scan[flags.astype(bool)]
    np.testing.assert_array_equal(slots, np.arange(flags.sum()))


def test_count_nonzero(dev):
    assert thrust.count_nonzero(dev, np.array([True, False, True])) == 2


def test_each_call_charges_one_launch(dev):
    a = np.ones(100)
    for _ in range(3):
        thrust.reduce_sum(dev, a)
    assert dev.stats()["thrust::reduce"].launches == 3


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
def test_reduce_matches_numpy(values):
    arr = np.asarray(values)
    assert thrust.reduce_sum(None, arr) == pytest.approx(float(arr.sum()), rel=1e-12, abs=1e-9)


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=100))
def test_scan_prefix_property(flags):
    arr = np.asarray(flags, dtype=np.int64)
    scan = thrust.exclusive_scan(None, arr)
    assert scan[0] == 0
    for i in range(1, len(arr)):
        assert scan[i] == scan[i - 1] + arr[i - 1]
