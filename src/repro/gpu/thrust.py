"""Thrust-style parallel primitives on the virtual device.

The paper's implementation leans on Thrust for reductions, inner products,
min/max and prefix scans in PAGANI's post-processing and threshold-search
steps.  Each wrapper here executes through a pluggable
:class:`~repro.backends.base.ArrayBackend` (NumPy when none is given) and
charges the device cost model as a memory-bound kernel (these primitives
stream the operand arrays once or twice through HBM, so bytes-moved is
the right roofline axis).

Passing a backend lets the same call sites run over CuPy device arrays or
any other registered substrate; the cost accounting is unchanged — the
virtual device models the paper's hardware regardless of what actually
executes the arithmetic.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backends import get_backend
from repro.backends.base import ArrayBackend
from repro.gpu.device import VirtualDevice

_F8 = 8  # bytes per float64


def reduce_sum(
    device: Optional[VirtualDevice],
    values: np.ndarray,
    name: str = "thrust::reduce",
    backend: Optional[ArrayBackend] = None,
) -> float:
    """Sum-reduce a vector (PAGANI lines 13-14)."""
    out = get_backend(backend).reduce_sum(values)
    if device is not None:
        device.charge_kernel(name, work_items=values.size, bytes_per_item=_F8)
    return out


def masked_sum(
    device: Optional[VirtualDevice],
    values: np.ndarray,
    mask: np.ndarray,
    name: str = "thrust::inner_product",
    backend: Optional[ArrayBackend] = None,
) -> float:
    """``Sum(V . A)`` / ``Sum(E . A)`` over the active flags (lines 18-19).

    The CUDA code computes these as an inner product with the 0/1 flag
    vector, so the charge models that kernel (values plus flags streamed).
    """
    out = get_backend(backend).masked_sum(values, mask)
    if device is not None:
        device.charge_kernel(name, work_items=values.size, bytes_per_item=2 * _F8)
    return out


def minmax(
    device: Optional[VirtualDevice],
    values: np.ndarray,
    name: str = "thrust::minmax_element",
    backend: Optional[ArrayBackend] = None,
) -> Tuple[float, float]:
    """Simultaneous min/max, used to bound the threshold search."""
    out = get_backend(backend).minmax(values)
    if device is not None:
        device.charge_kernel(name, work_items=values.size, bytes_per_item=_F8)
    return out


def exclusive_scan(
    device: Optional[VirtualDevice],
    flags: np.ndarray,
    name: str = "thrust::exclusive_scan",
    backend: Optional[ArrayBackend] = None,
) -> np.ndarray:
    """Exclusive prefix sum over 0/1 flags.

    This is the compaction index computation used by the filter kernel: the
    scan of the active flags gives each surviving region its output slot.
    """
    out = get_backend(backend).exclusive_scan(flags)
    if device is not None:
        device.charge_kernel(name, work_items=flags.size, bytes_per_item=2 * _F8)
    return out


def count_nonzero(
    device: Optional[VirtualDevice],
    flags: np.ndarray,
    name: str = "thrust::count",
    backend: Optional[ArrayBackend] = None,
) -> int:
    """Count set flags (number of active regions)."""
    out = get_backend(backend).count_nonzero(flags)
    if device is not None:
        device.charge_kernel(name, work_items=flags.size, bytes_per_item=_F8)
    return out
