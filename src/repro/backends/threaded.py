"""Multi-threaded chunked NumPy backend for multi-core hosts.

The EVALUATE sweep dominates PAGANI wall time once region counts grow; it
is embarrassingly parallel over region chunks.  This backend keeps the
exact chunk decomposition of the NumPy path (the chunks are computed by
the caller from ``chunk_budget``) and dispatches the chunk thunks onto a
thread pool.  NumPy releases the GIL inside the large ufunc and einsum
calls each chunk performs, so real multi-core speedup is available
without any change to the numbers: every chunk computes exactly what the
serial backend computes, into a disjoint output slice, so results are
**bit-identical** to the NumPy reference by construction.

Reductions and scans stay single-threaded NumPy — they are a vanishing
fraction of the iteration and keeping them serial preserves the exact
left-to-right pairwise summation order of the reference backend.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence

from repro.backends.base import resolve_workers
from repro.backends.numpy_backend import NumpyBackend


class ThreadedNumpyBackend(NumpyBackend):
    """Chunk-parallel NumPy execution on a shared thread pool.

    Parameters
    ----------
    num_threads:
        Pool width; ``None`` means one worker per host CPU (capped at 32).
        Selectable from the string spec ``"threaded:<N>"``.
    """

    name = "threaded"

    # No preferred grain of its own: the cache-sized default
    # (``evaluation.CHUNK_BUDGET``) already gives the pool many
    # independent chunks per sweep, with the same bits as numpy.
    concurrent_chunks = True

    def __init__(self, num_threads: Optional[int] = None):
        self.num_threads = resolve_workers(num_threads)
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_threads, thread_name_prefix="repro-backend"
            )
        return self._pool

    def run_chunks(self, tasks: Sequence[Callable[[], None]]) -> None:
        if len(tasks) <= 1 or self.num_threads == 1:
            for task in tasks:
                task()
            return
        pool = self._ensure_pool()
        futures = [pool.submit(task) for task in tasks]
        # Propagate the first worker exception (and always join the rest).
        errs = []
        for fut in futures:
            exc = fut.exception()
            if exc is not None:
                errs.append(exc)
        if errs:
            raise errs[0]

    def close(self) -> None:
        """Shut the pool down (tests/benchmark hygiene; optional)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ThreadedNumpyBackend threads={self.num_threads}>"
