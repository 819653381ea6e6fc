"""Layer tracing from outside the program.

:func:`install` replaces each layer's public entry point, at the name its
callers look it up by, with a wrapper that records a span: the call's
duration and its self time (the duration minus the time of traced calls
nested inside it on the same thread).  Counts are taken at the same
boundaries.  Nothing under ``src/`` changes; :meth:`Tracer.uninstall`
restores the originals.

On the ``process:<N>`` lane chunks run in pool workers, which this
tracer does not see; their chunk count and grain are read from the
chunk specs the parent submits instead.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """Aggregated spans (calls, total and self seconds) plus counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Dict[str, float] = defaultdict(float)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def calls(self, name: str) -> int:
        return int(self.spans[name][0]) if name in self.spans else 0

    def total(self, name: str) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def self_time(self, name: str) -> float:
        return self.spans[name][2] if name in self.spans else 0.0

    def wrap(
        self,
        owner: Any,
        attr: str,
        span: str,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``before(args, kwargs)`` runs first and its return value reaches
        ``after(args, kwargs, out, ctx)``; both run outside the span.
        """
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        local, stats, lock = self._local, self.spans, self._lock

        def traced(*args, **kwargs):
            ctx = before(args, kwargs) if before is not None else None
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                with lock:
                    row = stats[span]
                    row[0] += 1
                    row[1] += dt
                    row[2] += dt - frame[0]
            if after is not None:
                after(args, kwargs, out, ctx)
            return out

        traced.__wrapped__ = fn
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)


def _attr(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's entry points; returns ``tracer``."""
    from repro.cubature.rules import get_rule

    npoints: Dict[int, int] = {}
    prepared: Dict[int, int] = {}

    def wrap(module: str, path: str, span: str, before=None, after=None) -> None:
        owner, name = _attr(module, path)
        tracer.wrap(owner, name, span, before=before, after=after)

    # integrands: every evaluation of a catalogue or closure integrand
    def integrand_points(args, kwargs, out, ctx):
        tracer.count("integrands.points", len(args[1]))

    wrap("repro.integrands.base", "Integrand.__call__", "integrands.eval",
         after=integrand_points)

    # cubature: one in-process chunk of the evaluate sweep
    def chunk_points(args, kwargs, out, ctx):
        dr, c = args[1], args[3]
        tracer.count("cubature.chunks")
        tracer.count("cubature.points", c.shape[0] * dr.points.shape[0])

    wrap("repro.cubature.evaluation", "compute_chunk", "cubature.compute_chunk",
         after=chunk_points)

    # backends: chunk submission; remote chunks are counted from their specs
    def remote_chunks(args, kwargs):
        backend, tasks = args[0], args[1]
        remote = [t.remote_spec for t in tasks if getattr(t, "remote_spec", None)]
        if len(remote) <= 1 or backend.num_workers == 1:
            return  # ran in-process: compute_chunk counted it
        for spec in remote:
            ndim = spec["ndim"]
            if ndim not in npoints:
                npoints[ndim] = get_rule(ndim).npoints
            tracer.count("cubature.chunks")
            tracer.count("cubature.points", spec["centers"].shape[0] * npoints[ndim])

    wrap("repro.backends.base", "ArrayBackend.run_chunks", "backends.run_chunks")
    wrap("repro.backends.process", "ProcessNumpyBackend.run_chunks",
         "backends.run_chunks", before=remote_chunks)

    # core: one PAGANI iteration in two phases, and its inner kernels
    def regions(args, kwargs, out, ctx):
        run = args[0]
        prepared[id(run)] = run.store.size
        tracer.count("core.regions_evaluated", run.store.size)

    def iteration_done(args, kwargs, out, ctx):
        run = args[0]
        m = prepared.pop(id(run), 0)
        if out and run.has_result and run.result.converged:
            tracer.count("core.regions_committed", m)

    def threshold_outcome(args, kwargs, out, ctx):
        tracer.count("core.threshold_success", 1 if out[1].success else 0)

    def filtered(args, kwargs):
        active = args[1]
        tracer.count("core.regions_committed", int(active.size - active.sum()))

    wrap("repro.core.pagani", "PaganiRun.prepare_evaluation",
         "core.prepare_evaluation", after=regions)
    wrap("repro.core.pagani", "PaganiRun.complete_iteration",
         "core.complete_iteration", after=iteration_done)
    wrap("repro.core.pagani", "threshold_classify", "core.threshold",
         after=threshold_outcome)
    wrap("repro.core.regions", "RegionStore.filter", "core.filter_split",
         before=filtered)
    wrap("repro.core.regions", "RegionStore.split", "core.filter_split")

    # gpu: the virtual device's per-kernel cost accounting
    wrap("repro.gpu.device", "VirtualDevice.charge_kernel", "gpu.charge_kernel")

    # batch: one fused scheduling round
    def served_before(args, kwargs):
        return sum(args[0].stats.iterations_served.values())

    def served_after(args, kwargs, out, before):
        tracer.count("batch.members_served",
                     sum(args[0].stats.iterations_served.values()) - before)

    wrap("repro.batch.scheduler", "BatchScheduler.run_round", "batch.run_round",
         before=served_before, after=served_after)

    # service: result-cache reads at admission
    wrap("repro.service.cache", "ResultCache.get", "service.cache_lookup")
    return tracer


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer figures the program's own processes can give."""
    t, c = tracer, tracer.counts
    chunks = c["cubature.chunks"]
    rounds = t.calls("batch.run_round")
    thresholds = t.calls("core.threshold")
    evaluated = c["core.regions_evaluated"]
    return {
        "integrands.eval_s": t.total("integrands.eval"),
        "integrands.points": c["integrands.points"],
        "cubature.compute_chunk_self_s": t.self_time("cubature.compute_chunk"),
        "cubature.chunks": chunks,
        "cubature.points_per_chunk": c["cubature.points"] / chunks if chunks else 0.0,
        "backends.run_chunks_s": t.total("backends.run_chunks"),
        "backends.run_chunks_calls": t.calls("backends.run_chunks"),
        "core.iterations": t.calls("core.complete_iteration"),
        "core.regions_evaluated": evaluated,
        "core.complete_iteration_self_s": t.self_time("core.complete_iteration"),
        "core.threshold_s": t.total("core.threshold"),
        "core.threshold_success_frac": (
            c["core.threshold_success"] / thresholds if thresholds else 0.0
        ),
        "core.filter_split_s": t.total("core.filter_split"),
        "core.finished_frac": c["core.regions_committed"] / evaluated if evaluated else 0.0,
        "gpu.charge_kernel_s": t.total("gpu.charge_kernel"),
        "gpu.kernel_launches": t.calls("gpu.charge_kernel"),
        "batch.rounds": rounds,
        "batch.members_per_round": c["batch.members_served"] / rounds if rounds else 0.0,
        "batch.round_self_s": t.self_time("batch.run_round"),
        "service.cache_lookup_s": t.total("service.cache_lookup"),
    }


def measured_breakdown(tracer: Tracer, wall: float) -> Dict[str, float]:
    """Measured seconds per §4.3.2 category (the rest is ``other``)."""
    integrand = tracer.total("integrands.eval")
    threshold = tracer.total("core.threshold")
    filter_split = tracer.total("core.filter_split")
    rows = {
        "evaluate: integrand": integrand,
        "evaluate: generation+contraction": tracer.total("cubature.compute_chunk") - integrand,
        "post-processing": tracer.total("core.complete_iteration") - threshold - filter_split,
        "threshold-classification": threshold,
        "filter+split": filter_split,
    }
    rows["other"] = wall - sum(rows.values())
    return rows
