"""Optional CuPy backend: the real-GPU realisation of the hot path.

Import-guarded — constructing :class:`CupyBackend` on a host without
CuPy (or without a visible CUDA device) raises
:class:`~repro.backends.base.BackendUnavailableError`, and the registry
simply omits ``"cupy"`` from :func:`repro.backends.available_backends`.
Nothing in the default code path imports ``cupy``.

Design notes
------------
* Region geometry, cubature points and weights live as device arrays;
  the integrand receives a CuPy ``(N, ndim)`` array.  Integrands written
  with ``numpy`` ufuncs (all of ``repro.integrands``) work unchanged
  because ufunc calls dispatch to CuPy via ``__array_ufunc__``.
* Scalar-returning reductions (``reduce_sum`` …) synchronise the device,
  exactly like the ``thrust::reduce`` calls in the paper's
  implementation.
* Simulated-time accounting is unchanged (the virtual device still
  charges kernels), so figure reproductions remain deterministic; only
  *wall-clock* reflects the real hardware.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

import numpy as np

from repro.backends.base import ArrayBackend, BackendUnavailableError


def _import_cupy():
    try:
        import cupy  # type: ignore
    except Exception as exc:  # pragma: no cover - depends on host
        raise BackendUnavailableError(
            f"cupy backend requested but cupy is not importable: {exc}"
        ) from exc
    try:  # pragma: no cover - depends on host
        ndev = cupy.cuda.runtime.getDeviceCount()
    except Exception as exc:  # pragma: no cover - depends on host
        raise BackendUnavailableError(
            f"cupy backend requested but no CUDA runtime is usable: {exc}"
        ) from exc
    if ndev < 1:  # pragma: no cover - depends on host
        raise BackendUnavailableError(
            "cupy backend requested but no CUDA device is visible"
        )
    return cupy


def cupy_available() -> bool:
    """Whether the cupy backend can be constructed on this host."""
    try:
        _import_cupy()
    except BackendUnavailableError:
        return False
    return True  # pragma: no cover - depends on host


class CupyBackend(ArrayBackend):  # pragma: no cover - exercised on GPU hosts
    """CUDA execution through CuPy (requires cupy + a visible device)."""

    name = "cupy"

    #: a device wants few, large launches, not the host's cache-sized grain
    preferred_batch_chunk_budget = 16_000_000

    def __init__(self, device_id: Optional[int] = None):
        self._cp = _import_cupy()
        if device_id is not None:
            self._cp.cuda.Device(int(device_id)).use()

    @property
    def xp(self) -> Any:
        return self._cp

    def asarray(self, a: Any, dtype: Any = None) -> Any:
        return self._cp.asarray(a, dtype=dtype)

    def to_numpy(self, a: Any) -> np.ndarray:
        return self._cp.asnumpy(a)

    def map_integrand(self, fn: Callable[[Any], Any], points: Any) -> Any:
        vals = fn(points)
        vals = self._cp.asarray(vals)
        if vals.dtype != self._cp.float64:
            vals = vals.astype(self._cp.float64)
        return vals

    def synchronize(self) -> None:
        self._cp.cuda.get_current_stream().synchronize()

    def reduce_sum(self, values: Any) -> float:
        return float(self._cp.sum(values))

    def masked_sum(self, values: Any, mask: Any) -> float:
        return float(self._cp.sum(values * mask))

    def minmax(self, values: Any) -> Tuple[float, float]:
        if values.size == 0:
            raise ValueError("minmax of empty array")
        return (float(values.min()), float(values.max()))

    def count_nonzero(self, flags: Any) -> int:
        return int(self._cp.count_nonzero(flags))

    def exclusive_scan(self, flags: Any) -> Any:
        cp = self._cp
        out = cp.cumsum(flags, dtype=cp.int64)
        if out.size == 0:
            return out
        out = cp.concatenate((cp.zeros(1, dtype=cp.int64), out[:-1]))
        return out
