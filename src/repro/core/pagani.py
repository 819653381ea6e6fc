"""The PAGANI main loop (Algorithm 2).

One iteration = one breadth-first sweep over every live sub-region:

1. ``EVALUATE`` all regions with the Genz–Malik rule set (the only step
   needing function-evaluation-level parallelism);
2. refine raw errors with the two-level parent/sibling scheme;
3. ``REL-ERR-CLASSIFY`` regions whose own relative error already meets
   ``τ_rel``;
4. reduce to global estimates and test the termination condition
   ``(e + e_f) / |v + v_f| <= τ_rel`` or ``e + e_f <= τ_abs``;
5. optionally ``THRESHOLD-CLASSIFY`` (Algorithm 3) when the integral
   estimate has stabilised to the requested digits or the next split would
   exhaust device memory;
6. accumulate finished contributions, ``FILTER`` finished regions out of
   memory, ``SPLIT`` the survivors along their fourth-difference axes.

Every step is charged to the virtual device so the simulated-time figures
and the §4.3.2 performance breakdown fall out of the same run.

The loop body lives in :class:`PaganiRun`, a resumable state machine with
one method per phase: :meth:`PaganiRun.prepare_evaluation` builds the
iteration's evaluation chunk thunks without running them, and
:meth:`PaganiRun.complete_iteration` consumes the evaluated arrays and
performs classification, reduction, filtering and splitting.
:meth:`PaganiIntegrator.integrate` simply drives one run to completion;
the batched execution layer (:mod:`repro.batch`) interleaves many runs
over one shared backend by fusing their evaluation thunks into single
submissions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.backends import BackendLike, get_backend
from repro.core.classify import ThresholdTrace, rel_err_classify, threshold_classify
from repro.core.regions import RegionStore
from repro.core.result import IntegrationResult, IterationRecord, Status
from repro.cubature.evaluation import CHUNK_BUDGET, SweepScratch, evaluate_regions
from repro.cubature.rules import get_rule
from repro.cubature.two_level import two_level_errors
from repro.errors import ConfigurationError
from repro.gpu import thrust
from repro.gpu.device import DeviceSpec, VirtualDevice


@dataclass
class PaganiConfig:
    """Tunable knobs of the PAGANI integrator.

    Defaults follow the paper's experimental setup (§4): τ_abs = 1e-20 so
    the relative condition governs, 256-thread-block-style batch evaluation,
    relative-error filtering on (turn off for integrands oscillating in
    sign, §3.5.1), threshold classification armed on both triggers.
    """

    rel_tol: float = 1e-3
    abs_tol: float = 1e-20
    max_iterations: int = 60
    #: regions in the initial uniform split is the smallest d with
    #: d^ndim >= init_target (d >= 2)
    init_target: int = 2048
    #: explicit splits-per-axis override (None = derive from init_target)
    initial_splits: Optional[int] = None
    #: §3.5.1 user flag: disable relative-error filtering for integrands
    #: taking both signs
    relerr_filtering: bool = True
    #: Algorithm 3 trigger (a): integral estimate stable to the requested
    #: digits while the error is still too large
    threshold_on_convergence: bool = True
    #: Algorithm 3 trigger (b): next split would exhaust device memory
    threshold_on_memory: bool = True
    #: apply Berntsen two-level refinement (ablation knob)
    two_level: bool = True
    #: "cascade" (default: Berntsen–Espelid-style non-asymptotic detection),
    #: "two_rule" (|I7−I5|) or "four_difference" (paper-verbatim max of four)
    error_model: str = "cascade"
    #: Algorithm 3 parameters
    p_max: float = 0.25
    p_max_step: float = 0.10
    p_max_cap: float = 0.95
    mem_fraction: float = 0.5
    max_direction_changes: int = 10
    #: per-region finished test is e_i <= margin·τ_rel·|v_i|; the margin
    #: reserves part of the global budget for threshold commitments
    relerr_margin: float = 0.5
    #: chunking budget for the evaluate sweep (floats per chunk); ``None``
    #: takes the backend's declared grain (``preferred_batch_chunk_budget``),
    #: else ``CHUNK_BUDGET``.  A speed setting only — results are
    #: bit-identical at any grain on host lanes
    chunk_budget: Optional[int] = None
    #: execution backend for the hot path: a registered name
    #: ("numpy", "threaded", "threaded:<N>", "cupy") or an
    #: :class:`~repro.backends.base.ArrayBackend` instance
    backend: BackendLike = "numpy"

    def validate(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise ConfigurationError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.abs_tol < 0.0:
            raise ConfigurationError("abs_tol must be non-negative")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        if self.error_model not in ("cascade", "two_rule", "four_difference"):
            raise ConfigurationError(f"unknown error_model {self.error_model!r}")
        if self.initial_splits is not None and self.initial_splits < 1:
            raise ConfigurationError("initial_splits must be >= 1")

    def splits_for(self, ndim: int) -> int:
        if self.initial_splits is not None:
            return self.initial_splits
        d = max(2, math.ceil(self.init_target ** (1.0 / ndim)))
        return d


class PaganiIntegrator:
    """Breadth-first adaptive cubature on the (virtual) GPU.

    Parameters
    ----------
    config:
        Algorithm knobs; tolerance values here are defaults that
        :meth:`integrate` keyword arguments override per call.
    device:
        Virtual device executing the kernels.  ``None`` builds a
        memory-scaled V100; pass ``VirtualDevice(DeviceSpec.v100())`` for
        paper-scale memory accounting.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import PaganiIntegrator
    >>> f = lambda x: np.exp(-np.sum(x**2, axis=1))
    >>> res = PaganiIntegrator().integrate(f, ndim=3, rel_tol=1e-6)
    >>> res.converged
    True
    """

    def __init__(
        self,
        config: Optional[PaganiConfig] = None,
        device: Optional[VirtualDevice] = None,
    ):
        self.config = config or PaganiConfig()
        self.config.validate()
        self.device = device if device is not None else VirtualDevice(DeviceSpec.scaled())
        #: resolved execution backend (raises early on unknown/unusable specs)
        self.backend = get_backend(self.config.backend)
        #: threshold-search traces of the last run (Fig. 3 reproduction)
        self.threshold_traces: list[ThresholdTrace] = []
        self._active_run: Optional["PaganiRun"] = None

    # ------------------------------------------------------------------
    def start_run(
        self,
        integrand: Callable[[np.ndarray], np.ndarray],
        ndim: int,
        bounds: Optional[Sequence[Sequence[float]]] = None,
        rel_tol: Optional[float] = None,
        abs_tol: Optional[float] = None,
        collect_trace: bool = True,
    ) -> "PaganiRun":
        """Begin a resumable integration run (see :class:`PaganiRun`).

        The returned run owns all loop state; drive it with
        :meth:`PaganiRun.step` (or the finer-grained phase methods used by
        the batch scheduler).  The integrator's ``threshold_traces`` alias
        the run's list, so Fig. 3 reproductions keep working unchanged.

        An integrator's virtual device hosts **one live run at a time**
        (starting a run resets the device clock and memory pool), so
        concurrent runs — a batch — need one integrator per member.
        """
        if self._active_run is not None and not self._active_run.finished:
            raise ConfigurationError(
                "this integrator already has a live run; its virtual "
                "device hosts one run at a time — build one "
                "PaganiIntegrator per concurrent run (or abandon() the "
                "previous run first)"
            )
        run = PaganiRun(
            self, integrand, ndim, bounds=bounds, rel_tol=rel_tol,
            abs_tol=abs_tol, collect_trace=collect_trace,
        )
        self._active_run = run
        self.threshold_traces = run.threshold_traces
        return run

    # ------------------------------------------------------------------
    def integrate(
        self,
        integrand: Callable[[np.ndarray], np.ndarray],
        ndim: int,
        bounds: Optional[Sequence[Sequence[float]]] = None,
        rel_tol: Optional[float] = None,
        abs_tol: Optional[float] = None,
        collect_trace: bool = True,
    ) -> IntegrationResult:
        """Integrate ``integrand`` over an axis-aligned box.

        Parameters
        ----------
        integrand:
            Batch callable ``(N, ndim) -> (N,)``.  Cost-model metadata is
            read from an optional ``flops_per_eval`` attribute.
        bounds:
            ``(ndim, 2)`` low/high pairs; defaults to the unit cube, the
            domain used throughout the paper's evaluation.
        rel_tol / abs_tol:
            Override the configured tolerances for this call.
        """
        run = self.start_run(
            integrand, ndim, bounds=bounds, rel_tol=rel_tol, abs_tol=abs_tol,
            collect_trace=collect_trace,
        )
        try:
            while not run.finished:
                run.step()
        except BaseException:
            # A raising integrand must not leave a live run holding the
            # integrator's device (start_run would refuse forever after).
            run.abandon()
            raise
        return run.result


class PaganiRun:
    """One PAGANI integration as a resumable breadth-first state machine.

    Each iteration of Algorithm 2 is split into two phases:

    :meth:`prepare_evaluation`
        Builds the ``EVALUATE`` chunk thunks for the current region list
        *without executing them* and returns the list.  The caller decides
        how to run them — :meth:`step` submits them straight to the run's
        backend; :class:`repro.batch.BatchScheduler` concatenates thunks
        from many runs into one fused backend submission per round.
    :meth:`complete_iteration`
        Consumes the evaluated arrays: two-level refinement,
        classification, global reduction, termination tests, threshold
        classification, finished accumulation and the filter/split kernels.

    The split changes nothing numerically: every thunk writes a disjoint
    output slice, so any execution schedule produces the same bits as the
    inline loop did.  When the run finishes (any terminal status), the
    region store is released immediately — device memory accounting drops
    to zero and the arrays become collectable even while other runs in a
    batch keep iterating.
    """

    def __init__(
        self,
        integrator: PaganiIntegrator,
        integrand: Callable[[np.ndarray], np.ndarray],
        ndim: int,
        bounds: Optional[Sequence[Sequence[float]]] = None,
        rel_tol: Optional[float] = None,
        abs_tol: Optional[float] = None,
        collect_trace: bool = True,
    ):
        cfg = integrator.config
        self.config = cfg
        self.device = integrator.device
        self.backend = integrator.backend
        #: the evaluate grain; resolved here and nowhere else
        self.chunk_budget = (
            cfg.chunk_budget
            if cfg.chunk_budget is not None
            else self.backend.preferred_batch_chunk_budget or CHUNK_BUDGET
        )
        self.integrand = integrand
        self.ndim = ndim
        self.collect_trace = collect_trace
        self.tau_rel = cfg.rel_tol if rel_tol is None else float(rel_tol)
        self.tau_abs = cfg.abs_tol if abs_tol is None else float(abs_tol)
        if not (0.0 < self.tau_rel < 1.0):
            raise ConfigurationError(
                f"rel_tol must be in (0, 1), got {self.tau_rel}"
            )
        if bounds is None:
            bounds = [(0.0, 1.0)] * ndim
        bounds_arr = np.asarray(bounds, dtype=np.float64)
        if bounds_arr.shape != (ndim, 2):
            raise ConfigurationError(
                f"bounds must have shape ({ndim}, 2), got {bounds_arr.shape}"
            )

        self.rule = get_rule(ndim)
        dev = self.device
        dev.reset_clock()
        dev.memory.reset()
        self.threshold_traces: List[ThresholdTrace] = []
        flops_per_eval = float(getattr(integrand, "flops_per_eval", 50.0))
        self._flops_region = self.rule.flops_per_region(flops_per_eval)

        self._t0 = time.perf_counter()
        self.store: Optional[RegionStore] = RegionStore.uniform_split(
            bounds_arr, cfg.splits_for(ndim), device=dev, backend=self.backend
        )

        self._v_finished = 0.0
        self._e_finished = 0.0
        self._e_finished_threshold = 0.0  # share of e_finished (Algorithm 3)
        self._v_prev_global: Optional[float] = None
        self.neval = 0
        self.total_regions = 0
        self.trace: List[IterationRecord] = []

        self._status = Status.MAX_ITERATIONS
        self._v_global = 0.0
        self._e_global = float("inf")
        self.iterations = 0
        self._it = 0

        self.finished = False
        self._result: Optional[IntegrationResult] = None
        self._ev = None  # pending EvaluationResult between the two phases
        self._m = 0
        #: per-run scratch for the evaluate sweep's chunk temporaries
        #: (engaged only on serial host backends — see evaluate_regions)
        self._scratch = SweepScratch()

    # ------------------------------------------------------------------
    @property
    def has_result(self) -> bool:
        """Whether the run produced a result (False while live/abandoned)."""
        return self._result is not None

    @property
    def result(self) -> IntegrationResult:
        """The final :class:`IntegrationResult` (raises until finished)."""
        if self._result is None:
            raise RuntimeError("PaganiRun has not finished yet")
        return self._result

    # ------------------------------------------------------------------
    def prepare_evaluation(self) -> List[Callable[[], None]]:
        """Build this iteration's ``EVALUATE`` chunk thunks (Algorithm 2
        line 10) without running them.

        Returns the thunk list; every thunk writes a disjoint slice of the
        run's pre-allocated output arrays, so the caller may execute them
        in any order or interleaved with other runs' thunks.  Call
        :meth:`complete_iteration` after all thunks have executed.
        """
        if self.finished:
            raise RuntimeError("run already finished")
        if self._ev is not None:
            raise RuntimeError(
                "prepare_evaluation called twice without complete_iteration"
            )
        store = self.store
        # The sweep writes straight into the store's estimate/error/axis
        # columns (they are rewritten wholesale every iteration anyway),
        # so steady-state iterations allocate no fresh output arrays; the
        # scratch does the same for the chunk temporaries.
        ev, tasks = evaluate_regions(
            self.rule,
            store.centers,
            store.halfwidths,
            self.integrand,
            error_model=self.config.error_model,
            chunk_budget=self.chunk_budget,
            out_estimate=store.estimate,
            out_error=store.error,
            out_axis=store.split_axis,
            backend=self.backend,
            scratch=self._scratch,
            defer=True,
        )
        # Bookkeeping only after evaluate_regions succeeded: if it raises
        # (output-array allocation), the run's counters are untouched and
        # preparation can simply be retried.
        self.iterations = self._it + 1
        self._m = store.size
        self.total_regions += self._m
        self._ev = ev
        return tasks

    # ------------------------------------------------------------------
    def complete_iteration(self) -> bool:
        """Finish the iteration whose evaluation thunks have executed.

        Performs two-level refinement, classification, the global
        reduction and termination tests, threshold classification,
        finished-contribution accumulation and the filter/split kernels —
        Algorithm 2 lines 11-23.  Returns ``True`` when the run reached a
        terminal status (the region store is released at that point).
        """
        if self._ev is None:
            raise RuntimeError("complete_iteration without prepare_evaluation")
        cfg = self.config
        dev = self.device
        bk = self.backend
        store = self.store
        tau_rel = self.tau_rel
        tau_abs = self.tau_abs
        it = self._it
        m = self._m
        ev = self._ev
        self._ev = None

        self.neval += ev.neval
        dev.charge_kernel(
            "evaluate", work_items=m, flops_per_item=self._flops_region
        )
        store.estimate = ev.estimate
        store.split_axis = ev.split_axis

        # --- TWO-LEVEL-ERROR (line 11) ----------------------------
        if cfg.two_level and store.parent_estimate is not None:
            errors = two_level_errors(
                ev.estimate, ev.error, store.parent_estimate[0::2]
            )
            dev.charge_kernel("two_level", work_items=m, bytes_per_item=40.0)
        else:
            errors = ev.error
        store.error = errors

        # --- REL-ERR-CLASSIFY (line 12) ---------------------------
        if cfg.relerr_filtering:
            active = rel_err_classify(
                ev.estimate, errors, tau_rel, device=dev,
                margin=cfg.relerr_margin,
                abs_share=cfg.relerr_margin * tau_abs / m,
            )
        else:
            active = bk.xp.ones(m, dtype=bool)

        # --- global reduction + termination (lines 13-16) ---------
        v_it = thrust.reduce_sum(dev, ev.estimate, name="thrust::reduce(V)", backend=bk)
        e_it = thrust.reduce_sum(dev, errors, name="thrust::reduce(E)", backend=bk)
        self._v_global = v_global = v_it + self._v_finished
        self._e_global = e_global = e_it + self._e_finished

        n_active = thrust.count_nonzero(dev, active, backend=bk)
        n_fin_rel = m - n_active

        if e_global <= tau_abs:
            self._status = Status.CONVERGED_ABS
        elif v_global != 0.0 and e_global <= tau_rel * abs(v_global):
            self._status = Status.CONVERGED_REL

        n_fin_threshold = 0
        if self._status in (Status.CONVERGED_ABS, Status.CONVERGED_REL):
            self._record(it, m, n_active, n_fin_rel, 0)
            return self._finish()

        if it == cfg.max_iterations - 1:
            self._status = Status.MAX_ITERATIONS
            self._record(it, m, n_active, n_fin_rel, 0)
            return self._finish()

        # --- THRESHOLD-CLASSIFY triggers (§3.5.2) ------------------
        trigger_mem = cfg.threshold_on_memory and not store.split_would_fit(
            n_active
        )
        trigger_conv = (
            cfg.threshold_on_convergence
            and self._v_prev_global is not None
            and v_global != 0.0
            and abs(v_global - self._v_prev_global) <= tau_rel * abs(v_global)
        )
        if (trigger_mem or trigger_conv) and n_active > 0:
            # Share of the tolerance reserved for threshold commitments
            # (rel-err commitments stay below relerr_margin·τ_rel·|v|).
            # Under memory pressure the paper prioritises survival:
            # "conserving memory is the only possibility for the
            # algorithm to continue" — so the memory trigger falls back
            # to the raw excess budget when the safe allowance would
            # block filtering.
            allowance = (
                (1.0 - cfg.relerr_margin) * tau_rel * abs(v_global)
                - self._e_finished_threshold
            )
            before = active
            active, ttrace = threshold_classify(
                active,
                errors,
                v_global,
                e_global,
                tau_rel,
                commit_allowance=allowance,
                p_max=cfg.p_max,
                p_max_step=cfg.p_max_step,
                p_max_cap=cfg.p_max_cap,
                mem_fraction=cfg.mem_fraction,
                max_direction_changes=cfg.max_direction_changes,
                device=dev,
                backend=bk,
            )
            self.threshold_traces.append(ttrace)
            if not ttrace.success and trigger_mem:
                active, ttrace = threshold_classify(
                    before,
                    errors,
                    v_global,
                    e_global,
                    tau_rel,
                    commit_allowance=None,
                    p_max=cfg.p_max,
                    p_max_step=cfg.p_max_step,
                    p_max_cap=cfg.p_max_cap,
                    mem_fraction=cfg.mem_fraction,
                    max_direction_changes=cfg.max_direction_changes,
                    device=dev,
                    backend=bk,
                )
                self.threshold_traces.append(ttrace)
            if ttrace.success:
                self._e_finished_threshold += float(
                    np.sum(errors[before & ~active])
                )
            new_active = thrust.count_nonzero(dev, active, backend=bk)
            n_fin_threshold = n_active - new_active
            n_active = new_active

        # --- accumulate finished contributions (lines 18-19) ------
        v_active = thrust.masked_sum(dev, ev.estimate, active, backend=bk)
        e_active = thrust.masked_sum(dev, errors, active, backend=bk)
        self._v_finished += v_it - v_active
        self._e_finished += e_it - e_active

        self._record(it, m, n_active, n_fin_rel, n_fin_threshold)

        if (
            self._e_finished > tau_rel * abs(v_global)
            and self._e_finished > tau_abs
            and v_global != 0.0
        ):
            # Committed error already exceeds the tolerance: convergence
            # has become impossible ("easily detectable", §3.5.3).  This
            # only happens when memory pressure forced an over-large
            # commitment, so report it as resource exhaustion.
            self._status = Status.MEMORY_EXHAUSTED
            return self._finish()

        if n_active == 0:
            # All regions committed.  The finished totals are final.
            self._v_global = self._v_finished
            self._e_global = self._e_finished
            if self._e_global <= tau_abs:
                self._status = Status.CONVERGED_ABS
            elif (
                self._v_global != 0.0
                and self._e_global <= tau_rel * abs(self._v_global)
            ):
                self._status = Status.CONVERGED_REL
            else:
                self._status = Status.NO_ACTIVE_REGIONS
            return self._finish()

        if not store.split_would_fit(n_active):
            # Filtering could not free enough memory: return the latest
            # estimates with the failure flag (§3.5.2).
            self._status = Status.MEMORY_EXHAUSTED
            return self._finish()

        # --- FILTER + SPLIT (lines 20-23) --------------------------
        store.filter(active)
        store.split()
        self._v_prev_global = v_global
        self._it += 1
        return False

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run one full iteration inline; returns ``True`` when finished."""
        tasks = self.prepare_evaluation()
        self.backend.run_chunks(tasks)
        return self.complete_iteration()

    # ------------------------------------------------------------------
    def cancel_evaluation(self) -> None:
        """Roll back a prepared-but-not-run evaluation phase.

        Used by the batch scheduler when another member's preparation
        fails before the fused submission: this run's thunks never
        executed, so undoing the bookkeeping returns it to a state where
        ``prepare_evaluation`` may be called again.
        """
        if self._ev is not None:
            self.total_regions -= self._m
            self.iterations = self._it
            self._ev = None

    # ------------------------------------------------------------------
    def abandon(self) -> None:
        """Release region memory without producing a result (cancellation)."""
        if not self.finished and self.store is not None:
            self.store.release()
            self.store = None
            self.finished = True
            self._ev = None

    # ------------------------------------------------------------------
    def _finish(self) -> bool:
        wall = time.perf_counter() - self._t0
        self.store.release()
        # Drop the array references as well: a finished batch member frees
        # its region memory immediately while other members keep iterating.
        self.store = None
        self.finished = True
        self._result = IntegrationResult(
            estimate=self._v_global,
            errorest=self._e_global,
            status=self._status,
            neval=self.neval,
            nregions=self.total_regions,
            iterations=self.iterations,
            method="pagani",
            sim_seconds=self.device.elapsed_seconds,
            wall_seconds=wall,
            trace=self.trace,
        )
        return True

    # ------------------------------------------------------------------
    def _record(
        self, it: int, m: int, n_active: int, n_fin_rel: int,
        n_fin_threshold: int,
    ) -> None:
        if not self.collect_trace:
            return
        self.trace.append(
            IterationRecord(
                iteration=it,
                n_regions=m,
                n_active=n_active,
                n_finished_relerr=n_fin_rel,
                n_finished_threshold=n_fin_threshold,
                estimate=self._v_global,
                errorest=self._e_global,
                finished_estimate=self._v_finished,
                finished_errorest=self._e_finished,
                neval=self.neval,
                sim_seconds=self.device.elapsed_seconds,
            )
        )
