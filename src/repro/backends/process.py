"""Multi-process chunked NumPy backend: real multi-core without the GIL.

The ``threaded`` backend relies on NumPy releasing the GIL inside large
ufunc/einsum calls; with small cache-sized chunks, a meaningful share
of each chunk is pure-Python glue that still serialises, capping the
speedup well below the core count.  This backend executes the
evaluate-sweep chunks in a persistent pool of **worker processes**
instead, so every chunk's Python glue runs concurrently too.

How a chunk travels
-------------------
Chunk thunks are closures over backend arrays and the integrand — not
picklable.  The evaluate sweep therefore attaches a *picklable chunk
spec* to every task when this backend is active (see
:class:`~repro.cubature.evaluation.ChunkTask`): the integrand reference
(a catalogue spec string like ``"8d-f7"``, or the pickled callable), the
dimensionality, the error model, and the chunk's center/halfwidth
slices.  A worker rebuilds the integrand and the Genz–Malik rule tensors
once per process (both cached — ``named_integrand`` + ``get_rule`` /
``RULE_CACHE``), evaluates the chunk with the **same**
:func:`~repro.cubature.evaluation.compute_chunk` arithmetic the
in-process path uses, and returns the chunk's ``(estimate, error,
axis)`` arrays.  The parent stitches results in deterministic chunk
order, so results are **bit-identical** to the NumPy reference on the
same chunk decomposition — the conformance suite asserts it.

The IPC transport
-----------------
Two transports ship the chunk payloads (``ipc=`` constructor knob):

* ``"shm"`` (default) — the parent packs every chunk's centers and
  halfwidths into a reusable ``multiprocessing.shared_memory`` input
  arena and reserves per-chunk slots in an output arena; the submitted
  header is a tiny tuple of (arena names, offsets, shape, error model,
  integrand ref).  Workers map the arenas once per arena name, compute
  straight out of the shared pages, and write the three result vectors
  back in place — no per-chunk serialisation of the float payload in
  either direction.  float64/int64 bits move by memcpy, so the transport
  cannot perturb a single ULP.  A pickled-callable integrand ships once
  per *worker* through its own content-addressed shared-memory block
  (workers cache by digest), not once per chunk.  Arenas grow
  geometrically and are reused across submissions (``run_chunks`` is
  synchronous, so a submission never overlaps the next); they are
  unlinked on :meth:`close` or garbage collection.
* ``"pickle"`` — the original transport: the full chunk spec (arrays
  included) pickles through the executor per chunk.  Kept as the
  fallback when shared memory is unavailable (some sandboxes mount no
  ``/dev/shm``) and as the measured comparison point for
  ``BENCH_routing.json``'s shm-vs-pickle row.

Fallbacks and failure
---------------------
* An integrand that cannot be shipped (a lambda/closure without a
  catalogue spec) degrades gracefully: its chunks run in-process,
  serially, with unchanged numerics.
* A worker that *raises* propagates the exception to the caller exactly
  like a serial thunk would (the batch scheduler's per-member isolation
  applies unchanged).
* A worker that *dies* (segfault, ``os._exit``) breaks the pool;
  the backend discards the broken pool — the next submission builds a
  fresh one — and surfaces :class:`WorkerCrashError` for the affected
  chunks.  One crashing job cannot poison the backend for subsequent
  integrations.
"""

from __future__ import annotations

import hashlib
import pickle
import weakref
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.backends.base import BackendUnavailableError, resolve_workers
from repro.backends.numpy_backend import NumpyBackend


class WorkerCrashError(RuntimeError):
    """A pool worker died mid-chunk (crash, not an ordinary exception).

    The backend has already discarded the broken pool; retrying the
    integration builds a fresh one.  The original executor error is
    chained as ``__cause__``.
    """


# ---------------------------------------------------------------------------
# Availability probes (cached).
# ---------------------------------------------------------------------------
_POOL_PROBE: Optional[Tuple[bool, Optional[str]]] = None
_SHM_PROBE: Optional[bool] = None


def _probe_process_pool() -> Tuple[bool, Optional[str]]:
    """(available, reason-if-not): can this host build mp primitives?

    An import probe is not enough — on semaphore-less sandboxes
    ``multiprocessing.synchronize`` imports fine and pool creation
    explodes later inside ``run_chunks``.  Actually allocating (and
    releasing) one OS-level primitive answers the real question; the
    verdict is cached so the cost is paid once per process.
    """
    global _POOL_PROBE
    if _POOL_PROBE is None:
        try:
            import multiprocessing

            lock = multiprocessing.get_context().Lock()
            del lock
        except Exception as exc:  # ImportError, OSError, PermissionError...
            _POOL_PROBE = (False, f"{type(exc).__name__}: {exc}")
        else:
            _POOL_PROBE = (True, None)
    return _POOL_PROBE


def process_pool_available() -> bool:
    """Whether this host can build a process pool (cached real probe)."""
    return _probe_process_pool()[0]


def shared_memory_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` segments work here."""
    global _SHM_PROBE
    if _SHM_PROBE is None:
        try:
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(create=True, size=16)
            _release_shm(seg)
        except Exception:
            _SHM_PROBE = False
        else:
            _SHM_PROBE = True
    return _SHM_PROBE


def _release_shm(shm) -> None:
    """Unlink + close a parent-owned segment, tolerating stragglers."""
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - already gone
        pass
    try:
        shm.close()
    except BufferError:  # pragma: no cover - a view still alive; mapping
        pass  # dies with the process, the name is already unlinked


class _ShmArena:
    """A parent-owned shared-memory block, grown geometrically and reused.

    ``run_chunks`` is synchronous, so one submission's payload never
    overlaps the next — a single reusable arena per direction is enough
    (the "ring" degenerates to one slot).  Growth allocates a fresh
    segment under a fresh name; workers attach by name, so they pick up
    the new segment on the next chunk automatically.
    """

    def __init__(self) -> None:
        self.shm = None
        self.size = 0
        self._finalizer = None

    @property
    def name(self) -> str:
        return self.shm.name

    def ensure(self, nbytes: int) -> None:
        if self.shm is not None and self.size >= nbytes:
            return
        from multiprocessing import shared_memory

        self.release()
        size = max(4096, 1 << max(0, (int(nbytes) - 1)).bit_length())
        self.shm = shared_memory.SharedMemory(create=True, size=size)
        self.size = size
        self._finalizer = weakref.finalize(self, _release_shm, self.shm)

    def release(self) -> None:
        if self.shm is None:
            return
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        _release_shm(self.shm)
        self.shm = None
        self.size = 0


# ---------------------------------------------------------------------------
# Worker-process side.  Everything below runs inside pool workers; the
# per-process caches persist across chunks, so an integrand / rule set /
# arena mapping is rebuilt once per worker, not once per chunk.
# ---------------------------------------------------------------------------
_worker_numpy_backend: Optional[NumpyBackend] = None
_worker_integrands: Dict[Any, Callable] = {}
_worker_segments: "OrderedDict[str, Any]" = OrderedDict()

#: arena names a worker keeps mapped; parents regrow arenas rarely
#: (geometric growth), so a handful of names covers a pool's lifetime
_WORKER_SEGMENT_CAP = 8


def _worker_backend() -> NumpyBackend:
    global _worker_numpy_backend
    if _worker_numpy_backend is None:
        _worker_numpy_backend = NumpyBackend()
    return _worker_numpy_backend


def _worker_attach_shm(name: str):
    """Map a parent arena by name, once per worker (LRU-capped cache)."""
    seg = _worker_segments.get(name)
    if seg is None:
        from multiprocessing import shared_memory

        # On 3.11 attaching registers with the resource tracker too
        # (no ``track=False`` knob yet).  Pool workers share the
        # parent's tracker on every start method, so the registration
        # dedupes into the parent's own create-time entry and the
        # parent's eventual ``unlink`` balances it — do NOT unregister
        # here, that would strip the parent's entry and the tracker
        # would log a KeyError on the real unlink.
        seg = shared_memory.SharedMemory(name=name)
        _worker_segments[name] = seg
        while len(_worker_segments) > _WORKER_SEGMENT_CAP:
            _, old = _worker_segments.popitem(last=False)
            try:
                old.close()
            except BufferError:  # pragma: no cover - chunk view alive
                pass
    else:
        _worker_segments.move_to_end(name)
    return seg


def _resolve_worker_integrand(ref: Tuple[str, Any]) -> Callable:
    kind, value = ref
    if kind == "spec":
        key = ("spec", value)
    elif kind == "shm":
        # content-addressed: same digest == same pickled callable,
        # whether it arrived through shared memory or inline bytes
        key = ("pickle", bytes.fromhex(value[2]))
    else:
        key = ("pickle", hashlib.sha256(value).digest())
    fn = _worker_integrands.get(key)
    if fn is None:
        if kind == "spec":
            from repro.integrands.catalog import named_integrand

            fn = named_integrand(value)
        elif kind == "shm":
            name, size, _digest = value
            seg = _worker_attach_shm(name)
            fn = pickle.loads(bytes(seg.buf[:size]))
        else:
            fn = pickle.loads(value)
        _worker_integrands[key] = fn
    return fn


def _eval_chunk_in_worker(spec: Dict[str, Any]):
    """Evaluate one pickled chunk spec; returns ``(estimate, error, axis)``."""
    from repro.cubature.evaluation import compute_chunk
    from repro.cubature.rules import RULE_CACHE, get_rule

    bk = _worker_backend()
    integrand = _resolve_worker_integrand(spec["integrand"])
    dr = RULE_CACHE.device_rule(get_rule(spec["ndim"]), bk)
    return compute_chunk(
        bk, dr, integrand, spec["centers"], spec["halfwidths"],
        spec["error_model"],
    )


def _eval_chunk_shm(header: Tuple) -> None:
    """Evaluate one shared-memory chunk header, results written in place.

    The header is (in_name, out_name, in_off, out_off, mc, ndim,
    error_model, integrand_ref).  Inputs are read as views straight into
    the input arena; the three result vectors are memcpy'd into the
    output arena slot — the parent reads them back after the future
    resolves, so nothing numeric crosses the executor's pickle channel.
    """
    import numpy as np

    from repro.cubature.evaluation import compute_chunk
    from repro.cubature.rules import RULE_CACHE, get_rule

    in_name, out_name, in_off, out_off, mc, ndim, error_model, ref = header
    bk = _worker_backend()
    integrand = _resolve_worker_integrand(ref)
    in_seg = _worker_attach_shm(in_name)
    out_seg = _worker_attach_shm(out_name)
    count = mc * ndim
    centers = np.frombuffer(
        in_seg.buf, np.float64, count, in_off
    ).reshape(mc, ndim)
    halfwidths = np.frombuffer(
        in_seg.buf, np.float64, count, in_off + count * 8
    ).reshape(mc, ndim)
    dr = RULE_CACHE.device_rule(get_rule(ndim), bk)
    est, err, axis = compute_chunk(
        bk, dr, integrand, centers, halfwidths, error_model
    )
    np.frombuffer(out_seg.buf, np.float64, mc, out_off)[:] = est
    np.frombuffer(out_seg.buf, np.float64, mc, out_off + mc * 8)[:] = err
    np.frombuffer(out_seg.buf, np.int64, mc, out_off + mc * 16)[:] = axis
    return None


# ---------------------------------------------------------------------------
# Parent-process side: the backend.
# ---------------------------------------------------------------------------

#: parent keeps at most this many pickled-callable integrand blocks live
_INTEGRAND_SHM_CAP = 32


class ProcessNumpyBackend(NumpyBackend):
    """Chunk-parallel NumPy execution on a persistent process pool.

    Parameters
    ----------
    num_workers:
        Pool width; ``None`` means one worker per host CPU (capped at
        32).  Selectable from the string spec ``"process:<N>"``.
    ipc:
        Chunk transport — ``"shm"`` (default; shared-memory arenas, see
        module docstring) or ``"pickle"`` (per-chunk pickling).  ``shm``
        silently degrades to ``pickle`` when the host cannot create
        shared-memory segments; :attr:`effective_ipc` reports the
        transport actually in use.

    The pool is built lazily on the first parallel submission and reused
    for the backend's lifetime (workers keep their integrand/rule/arena
    caches warm); :meth:`close` shuts it down explicitly.
    """

    name = "process"

    #: the evaluate grain of every run on this backend.  Larger than the
    #: threaded backend's cache-sized 128 Ki floats: each chunk pays an
    #: IPC round-trip (dispatch + result collection), so the grain must
    #: amortise it while still yielding enough independent chunks per
    #: fused submission to fill every worker.
    preferred_batch_chunk_budget = 1_048_576

    #: ask the evaluate sweep to attach picklable chunk specs
    wants_chunk_specs = True
    concurrent_chunks = True

    def __init__(self, num_workers: Optional[int] = None, ipc: str = "shm"):
        available, reason = _probe_process_pool()
        if not available:
            raise BackendUnavailableError(
                "process backend unavailable: this host cannot create "
                f"multiprocessing primitives ({reason})"
            )
        if ipc not in ("shm", "pickle"):
            raise ValueError(f"ipc must be 'shm' or 'pickle', got {ipc!r}")
        self.num_workers = resolve_workers(num_workers)
        self.ipc = ipc
        self._pool: Optional[ProcessPoolExecutor] = None
        self._in_arena = _ShmArena()
        self._out_arena = _ShmArena()
        self._integrand_shms: "OrderedDict[str, Any]" = OrderedDict()
        self._integrand_finalizers: Dict[str, Any] = {}

    @property
    def effective_ipc(self) -> str:
        """The transport submissions actually use on this host."""
        if self.ipc == "shm" and shared_memory_available():
            return "shm"
        return "pickle"

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.num_workers)
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a broken pool without waiting; next use builds a fresh one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    def _ship_integrand(self, ref: Tuple[str, Any]) -> Tuple[str, Any]:
        """Rewrite a pickled-callable ref to ship through shared memory.

        Content-addressed by SHA-256: the bytes land in one segment per
        distinct callable, the per-chunk header carries only (name,
        size, digest), and workers read + unpickle once per worker.
        """
        kind, value = ref
        if kind != "pickle":
            return ref
        from multiprocessing import shared_memory

        digest = hashlib.sha256(value).hexdigest()
        seg = self._integrand_shms.get(digest)
        if seg is None:
            seg = shared_memory.SharedMemory(
                create=True, size=max(1, len(value))
            )
            seg.buf[: len(value)] = value
            self._integrand_shms[digest] = seg
            self._integrand_finalizers[digest] = weakref.finalize(
                self, _release_shm, seg
            )
            while len(self._integrand_shms) > _INTEGRAND_SHM_CAP:
                old_digest, old = self._integrand_shms.popitem(last=False)
                self._integrand_finalizers.pop(old_digest).detach()
                _release_shm(old)
        else:
            self._integrand_shms.move_to_end(digest)
        return ("shm", (seg.name, len(value), digest))

    def _submit_shm(self, pool: ProcessPoolExecutor, remote: Sequence) -> List:
        """Pack chunk payloads into the arenas and submit tiny headers.

        Returns ``(task, collect)`` pairs where ``collect()`` blocks on
        the worker and reads the chunk's result vectors out of the
        output arena.
        """
        import numpy as np

        specs = [t.remote_spec for t in remote]
        layout = []
        in_total = out_total = 0
        for spec in specs:
            mc, ndim = spec["centers"].shape
            layout.append((in_total, out_total, mc, ndim))
            in_total += 2 * mc * ndim * 8
            out_total += mc * 24  # estimate f8 + error f8 + axis i8
        self._in_arena.ensure(in_total)
        self._out_arena.ensure(out_total)
        in_buf = self._in_arena.shm.buf
        out_buf = self._out_arena.shm.buf
        submissions = []
        for task, spec, (in_off, out_off, mc, ndim) in zip(
            remote, specs, layout
        ):
            count = mc * ndim
            np.frombuffer(in_buf, np.float64, count, in_off).reshape(
                mc, ndim
            )[:] = spec["centers"]
            np.frombuffer(
                in_buf, np.float64, count, in_off + count * 8
            ).reshape(mc, ndim)[:] = spec["halfwidths"]
            header = (
                self._in_arena.name,
                self._out_arena.name,
                in_off,
                out_off,
                mc,
                ndim,
                spec["error_model"],
                self._ship_integrand(spec["integrand"]),
            )
            fut = pool.submit(_eval_chunk_shm, header)

            def collect(fut=fut, out_off=out_off, mc=mc):
                fut.result()  # raises the worker's exception, if any
                est = np.frombuffer(out_buf, np.float64, mc, out_off)
                err = np.frombuffer(out_buf, np.float64, mc, out_off + mc * 8)
                axis = np.frombuffer(out_buf, np.int64, mc, out_off + mc * 16)
                return est, err, axis

            submissions.append((task, fut, collect))
        return submissions

    # ------------------------------------------------------------------
    def run_chunks(self, tasks: Sequence[Callable[[], None]]) -> None:
        remote = [t for t in tasks if getattr(t, "remote_spec", None)]
        if len(remote) <= 1 or self.num_workers == 1:
            # Nothing to parallelise across processes (unshippable
            # integrand, single chunk, or width-1 pool): the in-process
            # thunks compute the same bits serially.
            for task in tasks:
                task()
            return

        pool = self._ensure_pool()
        try:
            if self.effective_ipc == "shm":
                submissions = self._submit_shm(pool, remote)
            else:
                submissions = [
                    (t, fut, fut.result)
                    for t in remote
                    for fut in (pool.submit(_eval_chunk_in_worker, t.remote_spec),)
                ]
        except RuntimeError as exc:
            # Pool already shut down under us (close() raced a submit).
            self._discard_pool()
            raise WorkerCrashError("process pool unusable") from exc

        # Overlap: the parent evaluates the unshippable chunks while the
        # workers chew on the shipped ones.
        errs: List[BaseException] = []
        for task in tasks:
            if getattr(task, "remote_spec", None):
                continue
            try:
                task()
            except Exception as exc:
                errs.append(exc)

        # Stitch in deterministic chunk order (the submission order).  A
        # worker exception is delivered through the task's
        # complete_remote hook so it propagates — or is recorded by the
        # batch scheduler's per-member guard — exactly like a serial
        # thunk raising.
        broken = False
        for task, fut, collect in submissions:
            error = fut.exception()
            if isinstance(error, BrokenExecutor):
                broken = True
                error = WorkerCrashError(
                    "a process-backend worker died while evaluating a "
                    "chunk; the pool was reset"
                )
                error.__cause__ = fut.exception()
            try:
                if error is not None:
                    task.complete_remote(error=error)
                else:
                    task.complete_remote(result=collect())
            except Exception as exc:
                errs.append(exc)
        if broken:
            self._discard_pool()
        if errs:
            raise errs[0]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down and release the shared-memory
        arenas (tests/benchmark hygiene; optional — GC finalizers cover
        a backend that is simply dropped)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._in_arena.release()
        self._out_arena.release()
        while self._integrand_shms:
            digest, seg = self._integrand_shms.popitem(last=False)
            self._integrand_finalizers.pop(digest).detach()
            _release_shm(seg)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ProcessNumpyBackend workers={self.num_workers} ipc={self.ipc}>"
        )
