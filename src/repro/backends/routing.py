"""Adaptive backend routing: pick the cheapest adequate backend per job.

The service and API historically pinned one execution backend for every
job, but jobs differ by orders of magnitude: a 100-region 2D probe
should not pay process-pool IPC, and a million-region 6D sweep should
not crawl on single-core numpy.  ``backend="auto"`` routes each job
instead:

1. **Score the job.**  The first breadth-first sweep dominates a run's
   shape: ``splits_for(ndim) ** ndim`` regions, each evaluated at the
   Genz–Malik rule's point count.  The router scores candidates on
   predicted first-sweep seconds = ``s/Meval × Mevals + per-sweep
   dispatch overhead``.
2. **Price the candidates.**  Host-backend ``s/Meval`` priors are seeded
   from the committed ``benchmarks/results/BENCH_backends.json`` rows
   (falling back to built-in constants when the file is not around,
   e.g. in an installed package) and refined online by observed sweep
   timings (EWMA — see :meth:`BackendRouter.observe`).  The cupy
   candidate is priced with the saturation-curve cost model from
   :mod:`repro.gpu.device`: small sweeps cannot fill a device, so its
   effective rate degrades by ``efficiency(n_regions)``.
3. **Dispatch.**  Cheapest predicted candidate wins: numpy for tiny
   jobs, ``process:N`` for big sweeps, cupy when present and saturated.
   Adequacy is never in question for host backends (they are
   bit-identical by the conformance contract); the decision only moves
   *where* the same bits are computed.

Escape hatches: a non-``auto`` override (per-job ``JobSpec.backend``,
or an explicit spec anywhere a backend is accepted) bypasses the policy
entirely, and :meth:`BackendRouter.autotune_width` lets a service probe
real pool widths at start-up instead of trusting ``os.cpu_count()``.

Solo :func:`repro.api.integrate` runs, :func:`repro.api.integrate_many`
batches and service jobs are priced by one model: every lane evaluates
at its own declared grain in all three, so batching earns no lane a
grain gain over another.

Cache identity stays honest: callers fingerprint the **resolved**
backend (its ``.name``), never the string ``"auto"`` — two services
with different routing outcomes must not alias cache entries.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.backends.base import resolve_workers
from repro.backends.compiled import numba_available
from repro.backends.cupy_backend import cupy_available
from repro.backends.process import process_pool_available

#: spec string that selects routing instead of a concrete backend
AUTO_SPEC = "auto"

#: The rungs *below* every array backend in the routing hierarchy.
#: Routing moves a PAGANI job between bit-identical execution
#: substrates; when PAGANI itself cannot finish (``MEMORY_EXHAUSTED``,
#: iteration watchdog), no substrate helps — the last resort is a
#: different *algorithm*.  These baseline integrators are priced as the
#: final candidates in that order (cheapest adequate first, mirroring
#: the committed bench ordering) and are reachable only through the
#: escalation policy (:mod:`repro.service.escalation`), never by the
#: per-job backend router: an escalated result changes the numbers, so
#: it must change the fingerprint too — routing's contract is that it
#: never does.
BASELINE_LAST_RESORT = ("two_phase", "vegas", "qmc")

#: committed perf baseline the priors are seeded from (repo checkout);
#: installed packages fall back to the constants below
PRIORS_FILE = (
    Path(__file__).resolve().parents[3]
    / "benchmarks"
    / "results"
    / "BENCH_backends.json"
)

#: measured medians from the committed BENCH_backends.json at the time
#: this module was written — used when the file itself is unavailable
FALLBACK_S_PER_MEVAL = {
    "numpy": 0.105,
    "threaded": 0.12,
    "process": 0.11,
    # fused nogil kernel, no per-chunk Python dispatch: the compiled
    # lane's steady-state rate once the JIT warm-up is paid
    "numba": 0.03,
}

#: fixed per-sweep dispatch cost (seconds) a backend pays before any
#: evaluation happens: pool hand-off, chunk submission, result stitch.
#: This is what routes tiny jobs to numpy even when a pool is idle.
SWEEP_OVERHEAD_S = {
    "numpy": 0.0,
    "threaded": 2e-3,
    "process": 2e-2,
    "cupy": 5e-3,
    # amortised share of the one-time JIT compile (cached after the
    # first sweep) plus the per-sweep kernel launch bookkeeping
    "numba": 1e-3,
}

#: fraction of ideal speedup a width-W pool retains (stitching and the
#: parent's serial share eat the rest); refined by observed timings
PROCESS_PARALLEL_EFFICIENCY = 0.75

#: saturated GPU evaluate rate (s/Meval) — paper-order-of-magnitude
#: prior; scaled down by the device-model efficiency curve on small
#: sweeps (no committed cupy rows exist to seed from)
CUPY_SATURATED_S_PER_MEVAL = 0.004

#: EWMA weight of each newly observed sweep rate
OBSERVATION_ALPHA = 0.3


def load_priors(path: Optional[Path] = None) -> Dict[str, float]:
    """Per-backend s/Meval medians from a committed backends bench file.

    Rows that did not converge or disagree with numpy are skipped;
    missing/corrupt files fall back to :data:`FALLBACK_S_PER_MEVAL`.
    """
    path = PRIORS_FILE if path is None else Path(path)
    rates: Dict[str, List[float]] = {}
    try:
        data = json.loads(path.read_text())
        for backend, rows in data.get("backends", {}).items():
            for row in rows.values() if isinstance(rows, dict) else rows:
                if not row.get("converged") or not row.get("neval"):
                    continue
                wall = float(row.get("wall_seconds", 0.0))
                neval = float(row["neval"])
                if wall > 0 and neval > 0:
                    rates.setdefault(backend, []).append(wall / (neval / 1e6))
    except (OSError, ValueError, KeyError, TypeError):
        rates = {}
    priors = dict(FALLBACK_S_PER_MEVAL)
    for backend, values in rates.items():
        values.sort()
        priors[backend] = values[len(values) // 2]
    return priors


def first_sweep_evals(ndim: int, initial_splits: Optional[int] = None) -> int:
    """Evaluations the first breadth-first sweep performs.

    Mirrors :meth:`repro.core.pagani.PaganiConfig.splits_for` ×
    the Genz–Malik point count — the quantity the routing score is
    built on (regions × points; each evaluation touches ``ndim``
    coordinates, which is folded into the measured s/Meval priors).
    """
    from repro.core.pagani import PaganiConfig
    from repro.cubature.rules import get_rule

    splits = PaganiConfig(initial_splits=initial_splits).splits_for(ndim)
    return (splits ** ndim) * get_rule(ndim).npoints


@dataclass
class RoutingDecision:
    """Outcome of one routing evaluation (also a debugging artifact)."""

    backend: str  #: resolved spec string, e.g. ``"numpy"``/``"process:4"``
    reason: str
    evals: float = 0.0  #: predicted first-sweep evaluations
    predicted_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def forced(self) -> bool:
        return self.reason == "override"


class BackendRouter:
    """Scores jobs against backend priors and picks the cheapest.

    Parameters
    ----------
    priors:
        s/Meval seed per backend family; default loads the committed
        bench baseline (see :func:`load_priors`).
    process_width:
        Pool width the ``process`` candidate is priced (and dispatched)
        at; default ``resolve_workers(None)`` — one worker per CPU.
        :meth:`autotune_width` replaces it with a measured choice.
    process / cupy:
        Availability overrides for tests; ``None`` probes the host.

    Thread-safe: decisions and observations may come from any service
    shard concurrently.
    """

    def __init__(
        self,
        priors: Optional[Dict[str, float]] = None,
        process_width: Optional[int] = None,
        process: Optional[bool] = None,
        cupy: Optional[bool] = None,
        numba: Optional[bool] = None,
    ):
        self.priors = load_priors() if priors is None else dict(priors)
        self.process_width = (
            resolve_workers(None) if process_width is None else int(process_width)
        )
        self._process = (
            process_pool_available() if process is None else bool(process)
        )
        self._cupy = cupy_available() if cupy is None else bool(cupy)
        self._numba = numba_available() if numba is None else bool(numba)
        self._lock = threading.Lock()
        self._observed: Dict[str, float] = {}
        self._observations = 0
        self._decisions: Dict[str, int] = {}
        self.autotune_report: Optional[Dict[str, float]] = None
        self.last_decision: Optional[RoutingDecision] = None

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------
    def _rate(self, family: str) -> float:
        """Current s/Meval belief for a backend family."""
        with self._lock:
            observed = self._observed.get(family)
        if observed is not None:
            return observed
        return self.priors.get(family, FALLBACK_S_PER_MEVAL["numpy"])

    def _candidates(self) -> List[str]:
        out = ["numpy"]
        if self._process and self.process_width > 1:
            out.append(f"process:{self.process_width}")
        if self._numba:
            out.append("numba")
        if self._cupy:
            out.append("cupy")
        return out

    def predict_seconds(self, spec: str, evals: float, regions: float) -> float:
        """Predicted first-sweep seconds for one candidate spec."""
        family = spec.partition(":")[0]
        mevals = evals / 1e6
        if family == "cupy":
            # Small sweeps cannot fill a device: scale the saturated
            # rate by the gpu/device.py occupancy curve.
            from repro.gpu.device import DeviceSpec

            dev = DeviceSpec.v100()
            occupancy = dev.efficiency(regions) / dev.eff_max
            rate = CUPY_SATURATED_S_PER_MEVAL / max(occupancy, 1e-6)
        elif family == "process":
            width = int(spec.partition(":")[2] or self.process_width)
            with self._lock:
                observed = self._observed.get("process")
            if observed is not None:
                # A real sweep timed on *this* host's pool beats any
                # model — without this, a crawling pool (oversubscribed
                # box, say) keeps winning on paper forever.
                rate = observed
            else:
                serial = self._rate("numpy")
                pooled = self.priors.get(
                    "process", FALLBACK_S_PER_MEVAL["process"]
                )
                # The bench prior measured *some* pool; scale the serial
                # rate by this width's ideal speedup, degraded by the
                # stitch/serial share — take whichever is more
                # optimistic.
                rate = min(
                    serial / max(1.0, width * PROCESS_PARALLEL_EFFICIENCY),
                    pooled,
                )
        else:
            rate = self._rate(family)
        return rate * mevals + SWEEP_OVERHEAD_S.get(family, 0.0)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def decide(
        self,
        ndim: int,
        rel_tol: float = 1e-3,
        initial_splits: Optional[int] = None,
        override: Optional[str] = None,
    ) -> RoutingDecision:
        """Route one job; ``override`` (non-``auto``) short-circuits."""
        return self.decide_batch(
            [ndim], rel_tol=rel_tol, initial_splits=initial_splits,
            override=override,
        )

    def decide_batch(
        self,
        ndims: Sequence[int],
        rel_tol: float = 1e-3,
        initial_splits: Optional[int] = None,
        override: Optional[str] = None,
    ) -> RoutingDecision:
        """Route a fused batch: one backend for the summed member work."""
        if override is not None and override != AUTO_SPEC:
            decision = RoutingDecision(backend=override, reason="override")
        else:
            from repro.core.pagani import PaganiConfig
            from repro.cubature.rules import get_rule

            evals = 0.0
            regions = 0.0
            for ndim in ndims:
                splits = PaganiConfig(
                    initial_splits=initial_splits
                ).splits_for(ndim)
                n_regions = float(splits**ndim)
                regions += n_regions
                evals += n_regions * get_rule(ndim).npoints
            predicted = {
                spec: self.predict_seconds(spec, evals, regions)
                for spec in self._candidates()
            }
            # stable min: ties go to the earliest candidate (numpy)
            best = min(predicted, key=lambda s: (predicted[s], s != "numpy"))
            decision = RoutingDecision(
                backend=best,
                reason=f"cheapest of {len(predicted)} candidates",
                evals=evals,
                predicted_seconds=predicted,
            )
        with self._lock:
            family = decision.backend.partition(":")[0]
            self._decisions[family] = self._decisions.get(family, 0) + 1
            self.last_decision = decision
        return decision

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------
    def observe(self, backend_name: str, neval: float, seconds: float) -> None:
        """Fold an observed (neval, wall seconds) sample into the rates."""
        if neval <= 0 or seconds <= 0:
            return
        family = backend_name.partition(":")[0]
        rate = seconds / (neval / 1e6)
        with self._lock:
            prev = self._observed.get(family)
            if prev is None:
                prev = self.priors.get(family, rate)
            self._observed[family] = (
                (1.0 - OBSERVATION_ALPHA) * prev + OBSERVATION_ALPHA * rate
            )
            self._observations += 1

    def autotune_width(
        self,
        widths: Optional[Sequence[int]] = None,
        probe_spec: str = "3d-f4",
        probe_rel_tol: float = 1e-3,
    ) -> int:
        """Probe real pool widths once (service start) and keep the best.

        Runs one small catalogue integrand per candidate width through a
        fresh :class:`~repro.backends.process.ProcessNumpyBackend` (tiny
        chunk grain, so the pool actually fans out) and adopts the width
        with the best wall clock.  A host without usable process pools
        (or a single CPU) skips the probe and pins width 1, which also
        removes ``process`` from the candidate list.
        """
        host_width = resolve_workers(None)
        if not self._process or host_width <= 1:
            self.process_width = 1
            self.autotune_report = {}
            return 1
        if widths is None:
            widths = sorted({2, max(2, host_width // 2), host_width})
        import numpy as np

        from repro.backends.process import ProcessNumpyBackend
        from repro.core.pagani import PaganiConfig, PaganiIntegrator
        from repro.integrands.catalog import named_integrand

        fn = named_integrand(probe_spec)
        ndim = int(probe_spec.split("d")[0])
        bounds = np.array([[0.0, 1.0]] * ndim)
        report: Dict[str, float] = {}
        best_width, best_wall = self.process_width, float("inf")
        for width in widths:
            backend = ProcessNumpyBackend(num_workers=width)
            try:
                cfg = PaganiConfig(
                    rel_tol=probe_rel_tol, backend=backend,
                    chunk_budget=50_000,
                )
                t0 = time.perf_counter()
                result = PaganiIntegrator(cfg).integrate(fn, ndim, bounds)
                wall = time.perf_counter() - t0
            finally:
                backend.close()
            report[str(width)] = wall
            # The probe is deliberately tiny (fast service start), so
            # its s/Meval is dispatch-overhead-dominated — folding it
            # into the family rate would bias routing against the pool.
            # Widths are compared against each other only.
            if wall < best_wall:
                best_width, best_wall = width, wall
        self.process_width = best_width
        self.autotune_report = report
        return best_width

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Observability snapshot (service ``stats()['routing']``)."""
        with self._lock:
            return {
                "process_width": self.process_width,
                "candidates": self._candidates(),
                "decisions": dict(self._decisions),
                "observations": self._observations,
                "observed_s_per_meval": dict(self._observed),
                "autotuned": self.autotune_report is not None,
            }


_shared_router: Optional[BackendRouter] = None
_shared_lock = threading.Lock()


def shared_router() -> BackendRouter:
    """Process-wide router used by the one-shot API surfaces — so
    observed timings from earlier ``integrate(backend="auto")`` calls
    refine later decisions."""
    global _shared_router
    with _shared_lock:
        if _shared_router is None:
            _shared_router = BackendRouter()
        return _shared_router


def is_auto(spec: object) -> bool:
    """Whether a backend spec requests routing."""
    return isinstance(spec, str) and spec == AUTO_SPEC
