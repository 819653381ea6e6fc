"""Property-based tests for the Thrust-style backend primitives.

Hypothesis drives random flag/value populations through every available
backend's ``exclusive_scan``, reductions and stream compaction, asserting
the algebraic properties the PAGANI kernels rely on (the filter kernel's
scan/compact contract, the reduction sync points) rather than any single
worked example.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.backends import ArrayBackend, BackendUnavailableError, get_backend

#: host backends always run; cupy joins when CUDA is present
SPECS = ["numpy", "threaded", "cupy"]


def _backends() -> list:
    out = []
    for spec in SPECS:
        try:
            out.append(get_backend(spec))
        except BackendUnavailableError:
            pass
    return out


BACKENDS = _backends()
BACKEND_IDS = [bk.name for bk in BACKENDS]

flags_arrays = hnp.arrays(
    dtype=np.int64,
    shape=st.integers(min_value=0, max_value=200),
    elements=st.integers(min_value=0, max_value=1),
)

value_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=200),
    elements=st.floats(
        min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
    ),
)


@pytest.mark.parametrize("bk", BACKENDS, ids=BACKEND_IDS)
@given(flags=flags_arrays)
def test_exclusive_scan_properties(bk: ArrayBackend, flags):
    scan = bk.to_numpy(bk.exclusive_scan(bk.asarray(flags)))
    assert scan.shape == flags.shape
    if flags.size:
        # Defining recurrence of the exclusive prefix sum.
        assert scan[0] == 0
        np.testing.assert_array_equal(scan[1:], np.cumsum(flags)[:-1])
        # The filter kernel's contract: each surviving element's scan value
        # is its output slot, and slots are consecutive.
        assert scan[-1] + flags[-1] == flags.sum()
        np.testing.assert_array_equal(
            scan[flags.astype(bool)], np.arange(int(flags.sum()))
        )


@pytest.mark.parametrize("bk", BACKENDS, ids=BACKEND_IDS)
@given(flags=flags_arrays)
def test_count_matches_scan_total(bk: ArrayBackend, flags):
    n = bk.count_nonzero(bk.asarray(flags.astype(bool)))
    assert n == int(flags.sum())


@pytest.mark.parametrize("bk", BACKENDS, ids=BACKEND_IDS)
@given(values=value_arrays)
def test_reductions_agree_with_reference(bk: ArrayBackend, values):
    dev = bk.asarray(values)
    assert bk.reduce_sum(dev) == pytest.approx(float(np.sum(values)), rel=1e-12, abs=1e-300)
    lo, hi = bk.minmax(dev)
    assert lo == float(np.min(values)) and hi == float(np.max(values))
    mask = values > 0.0
    assert bk.masked_sum(dev, bk.asarray(mask)) == pytest.approx(
        float(np.sum(values[mask])), rel=1e-12, abs=1e-300
    )


@pytest.mark.parametrize("bk", BACKENDS, ids=BACKEND_IDS)
@given(flags=flags_arrays)
def test_compress_is_order_preserving_subset(bk: ArrayBackend, flags):
    mask = flags.astype(bool)
    payload = np.arange(flags.size, dtype=np.float64)
    kept = bk.to_numpy(bk.compress(bk.asarray(mask), bk.asarray(payload)))
    # Exactly the flagged rows, in their original order, nothing duplicated.
    np.testing.assert_array_equal(kept, payload[mask])
    assert kept.size == int(mask.sum())


@pytest.mark.parametrize("bk", BACKENDS, ids=BACKEND_IDS)
@given(flags=flags_arrays)
def test_compress_2d_rows(bk: ArrayBackend, flags):
    mask = flags.astype(bool)
    payload = np.stack(
        [np.arange(flags.size, dtype=np.float64)] * 3, axis=1
    ) + np.array([0.0, 0.25, 0.5])
    kept = bk.to_numpy(bk.compress(bk.asarray(mask), bk.asarray(payload)))
    np.testing.assert_array_equal(kept, payload[mask])
