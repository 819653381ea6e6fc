"""The two-phase GPU method of Arumugam et al. [12][15].

Phase I expands the sub-region list breadth-first (like PAGANI, from which
it differs by using only relative-error filtering, *without* the two-level
error refinement — the paper explicitly notes phase I lacks it) until the
list is large enough for a 1-1 mapping with the launchable thread blocks.

Phase II then runs an independent *sequential* Cuhre inside each block over
its assigned sub-region, with a fixed per-block region budget (2048 on the
paper's 16 GB V100) and a purely local termination condition — the global
relative error is unknowable without synchronisation, which is exactly the
weakness PAGANI removes.  A block whose heap fills before its local
tolerance is met has exhausted its memory; when that happens and the global
tolerance is missed, the method fails (the paper's Figs. 4/5: failures
beyond ~5 digits on 5D f4 and 6D f6).

Implementation note: the per-block sequential Cuhre loops are advanced in
lock-step so the child evaluations of all live blocks form one batched
(vectorized) rule evaluation per step.  Blocks are independent, so lock-step
advancement is observationally identical to running them to completion one
by one — it only changes host wall-clock, not results.  Simulated phase-II
time is the makespan of the per-block durations on the device's SM slots.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.classify import rel_err_classify
from repro.core.regions import RegionStore, bytes_per_region
from repro.core.result import IntegrationResult, IterationRecord, Status
from repro.cubature.evaluation import evaluate_regions
from repro.cubature.rules import get_rule
from repro.cubature.two_level import two_level_errors
from repro.errors import ConfigurationError
from repro.gpu import thrust
from repro.gpu.device import DeviceSpec, VirtualDevice, KERNEL_INEFFICIENCY
from repro.gpu.scheduler import BlockScheduler


@dataclass
class TwoPhaseConfig:
    """Two-phase method knobs.

    ``target_blocks`` is the 1-1 phase-I mapping limit (the paper's 2^15 —
    a grid/SM resource, not a memory one, so it does not scale with device
    memory).  ``block_region_budget`` is the paper's 2048-region memory
    space per phase-II block.  Device memory binds *globally*: phase-II
    blocks draw regions from the device pool as they refine, and when the
    pool is exhausted every still-unconverged block fails — this is the
    mechanism behind the paper's "early exhaustion of the allocated memory
    resources" failures, and on a memory-scaled device it appears at
    proportionally lower digit counts.
    """

    rel_tol: float = 1e-3
    abs_tol: float = 1e-20
    max_phase1_iterations: int = 60
    target_blocks: int = 32768
    block_region_budget: int = 2048
    init_target: int = 2048
    initial_splits: Optional[int] = None
    relerr_filtering: bool = True
    error_model: str = "cascade"
    #: two-level refinement in phase II only (paper: phase I lacks it)
    two_level_phase2: bool = True

    def validate(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise ConfigurationError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.target_blocks < 1:
            raise ConfigurationError("target_blocks must be >= 1")

    def splits_for(self, ndim: int) -> int:
        if self.initial_splits is not None:
            return self.initial_splits
        return max(2, math.ceil(self.init_target ** (1.0 / ndim)))


class _Block:
    """State of one phase-II block: a bounded local Cuhre."""

    __slots__ = ("heap", "centers", "halfw", "vals", "errs", "axes",
                 "v", "e", "n_regions", "evals", "done", "failed", "seq")

    def __init__(self, center, halfw, v, e, axis):
        self.centers: List[np.ndarray] = [center]
        self.halfw: List[np.ndarray] = [halfw]
        self.vals: List[float] = [v]
        self.errs: List[float] = [e]
        self.axes: List[int] = [axis]
        self.heap: list = [(-e, 0, 0)]
        self.v = v
        self.e = e
        self.n_regions = 1
        self.evals = 1  # region evaluations performed (for makespan)
        self.done = False
        self.failed = False
        self.seq = 1


class TwoPhaseIntegrator:
    """Two-phase adaptive cubature on the virtual device."""

    def __init__(
        self,
        config: Optional[TwoPhaseConfig] = None,
        device: Optional[VirtualDevice] = None,
    ):
        self.config = config or TwoPhaseConfig()
        self.config.validate()
        self.device = device if device is not None else VirtualDevice(DeviceSpec.scaled())

    # ------------------------------------------------------------------
    def integrate(
        self,
        integrand: Callable[[np.ndarray], np.ndarray],
        ndim: int,
        bounds: Optional[Sequence[Sequence[float]]] = None,
        rel_tol: Optional[float] = None,
        abs_tol: Optional[float] = None,
    ) -> IntegrationResult:
        cfg = self.config
        tau_rel = cfg.rel_tol if rel_tol is None else float(rel_tol)
        tau_abs = cfg.abs_tol if abs_tol is None else float(abs_tol)
        if bounds is None:
            bounds = [(0.0, 1.0)] * ndim
        b = np.asarray(bounds, dtype=np.float64)
        if b.shape != (ndim, 2):
            raise ConfigurationError(f"bounds must have shape ({ndim}, 2)")

        rule = get_rule(ndim)
        dev = self.device
        dev.reset_clock()
        dev.memory.reset()
        flops_per_eval = float(getattr(integrand, "flops_per_eval", 50.0))
        flops_region = rule.flops_per_region(flops_per_eval)
        bpr = bytes_per_region(ndim)

        budget = int(cfg.block_region_budget)
        max_blocks = int(cfg.target_blocks)
        #: total regions the device pool can hold for phase II
        cap_regions = int(dev.memory.capacity // bpr)

        t0 = time.perf_counter()
        neval = 0
        total_regions = 0
        v_finished = 0.0
        e_finished = 0.0
        trace: list[IterationRecord] = []

        def record(it: int, m: int, n_active: int, v: float, e: float) -> None:
            trace.append(
                IterationRecord(
                    iteration=it, n_regions=m, n_active=n_active,
                    n_finished_relerr=m - n_active, n_finished_threshold=0,
                    estimate=v, errorest=e, finished_estimate=v_finished,
                    finished_errorest=e_finished, neval=neval,
                    sim_seconds=dev.elapsed_seconds,
                )
            )

        # ------------------------------------------------------------
        # Phase I: breadth-first expansion with rel-err filtering only.
        # ------------------------------------------------------------
        store = RegionStore.uniform_split(b, cfg.splits_for(ndim), device=dev)
        status: Optional[Status] = None
        v_global = 0.0
        e_global = float("inf")

        for it in range(cfg.max_phase1_iterations):
            m = store.size
            total_regions += m
            ev = evaluate_regions(
                rule, store.centers, store.halfwidths, integrand,
                error_model=cfg.error_model,
            )
            neval += ev.neval
            dev.charge_kernel("evaluate", work_items=m, flops_per_item=flops_region)
            store.estimate = ev.estimate
            store.error = ev.error  # no two-level refinement in phase I
            store.split_axis = ev.split_axis

            if cfg.relerr_filtering:
                active = rel_err_classify(ev.estimate, ev.error, tau_rel, device=dev)
            else:
                active = np.ones(m, dtype=bool)

            v_it = thrust.reduce_sum(dev, ev.estimate, name="thrust::reduce(V)")
            e_it = thrust.reduce_sum(dev, ev.error, name="thrust::reduce(E)")
            v_global = v_it + v_finished
            e_global = e_it + e_finished

            if e_global <= tau_abs:
                status = Status.CONVERGED_ABS
                break
            if v_global != 0.0 and e_global <= tau_rel * abs(v_global):
                status = Status.CONVERGED_REL
                break

            v_active = thrust.masked_sum(dev, ev.estimate, active)
            e_active = thrust.masked_sum(dev, ev.error, active)
            v_finished += v_it - v_active
            e_finished += e_it - e_active
            n_active = int(np.count_nonzero(active))
            record(it, m, n_active, v_global, e_global)
            if n_active == 0:
                v_global = v_finished
                e_global = e_finished
                status = (
                    Status.CONVERGED_REL
                    if v_global != 0.0 and e_global <= tau_rel * abs(v_global)
                    else Status.NO_ACTIVE_REGIONS
                )
                break

            store.filter(active)
            # Phase I runs "until reaching a maximum number of regions that
            # can satisfy a 1-1 mapping with the parallel blocks": stop
            # BEFORE a split would overshoot the block count, so every
            # surviving region gets a phase-II block.  Relative-error
            # filtering keeps the active list shrinking, which lets phase I
            # refine hot spots for many iterations before handing over.
            if 2 * store.size > max_blocks or not store.split_would_fit(store.size):
                status = None  # proceed to phase II
                break
            store.split()
        else:
            status = Status.MAX_ITERATIONS

        if status is not None:
            wall = time.perf_counter() - t0
            store.release()
            return IntegrationResult(
                estimate=v_global, errorest=e_global, status=status,
                neval=neval, nregions=total_regions, iterations=len(trace),
                method="two_phase", sim_seconds=dev.elapsed_seconds,
                wall_seconds=wall, trace=trace,
            )

        # ------------------------------------------------------------
        # Phase II: per-block sequential Cuhre, lock-step batched.
        # ------------------------------------------------------------
        n_blocks = min(store.size, max_blocks)
        blocks = [
            _Block(
                store.centers[i].copy(), store.halfwidths[i].copy(),
                float(store.estimate[i]), float(store.error[i]),
                int(store.split_axis[i]),
            )
            for i in range(n_blocks)
        ]
        # Regions beyond the block capacity stay un-refined; their phase-I
        # estimates are committed as-is (resource exhaustion).
        overflow_v = float(np.sum(store.estimate[n_blocks:]))
        overflow_e = float(np.sum(store.error[n_blocks:]))
        overflow = store.size - n_blocks
        store.release()

        # Local tolerance: each block refines until its own relative error
        # meets τ_rel (the only check a block can perform without global
        # synchronisation).
        live = []
        for blk in blocks:
            if blk.e > tau_rel * abs(blk.v) and budget > 1:
                live.append(blk)
            else:
                blk.done = True

        live_regions = len(blocks)  # regions resident in device memory
        pool_exhausted = False
        child_c = None
        child_h = None
        while live:
            if live_regions + len(live) > cap_regions:
                # Device memory exhausted: every still-running block fails
                # with its current (insufficient) estimates — the paper's
                # "early exhaustion of the allocated memory resources".
                pool_exhausted = True
                for blk in live:
                    blk.done = True
                    blk.failed = True
                break
            k = len(live)
            if child_c is None or child_c.shape[0] != 2 * k:
                child_c = np.empty((2 * k, ndim))
                child_h = np.empty((2 * k, ndim))
            parents = []
            for j, blk in enumerate(live):
                _, _, slot = heapq.heappop(blk.heap)
                axis = blk.axes[slot]
                nh = blk.halfw[slot].copy()
                nh[axis] *= 0.5
                c = blk.centers[slot]
                child_c[2 * j] = c
                child_c[2 * j, axis] = c[axis] - nh[axis]
                child_c[2 * j + 1] = c
                child_c[2 * j + 1, axis] = c[axis] + nh[axis]
                child_h[2 * j] = nh
                child_h[2 * j + 1] = nh
                parents.append((blk, slot))

            ev = evaluate_regions(
                rule, child_c, child_h, integrand, error_model=cfg.error_model
            )
            neval += ev.neval
            total_regions += 2 * k
            if cfg.two_level_phase2:
                parent_vals = np.array([blk.vals[slot] for blk, slot in parents])
                ref = two_level_errors(ev.estimate, ev.error, parent_vals)
            else:
                ref = ev.error

            next_live = []
            for j, (blk, slot) in enumerate(parents):
                pv, pe = blk.vals[slot], blk.errs[slot]
                for i, s in ((2 * j, slot), (2 * j + 1, None)):
                    if s is None:
                        s = len(blk.vals)
                        blk.centers.append(child_c[i].copy())
                        blk.halfw.append(child_h[i].copy())
                        blk.vals.append(float(ev.estimate[i]))
                        blk.errs.append(float(ref[i]))
                        blk.axes.append(int(ev.split_axis[i]))
                    else:
                        blk.centers[s] = child_c[i].copy()
                        blk.halfw[s] = child_h[i].copy()
                        blk.vals[s] = float(ev.estimate[i])
                        blk.errs[s] = float(ref[i])
                        blk.axes[s] = int(ev.split_axis[i])
                    heapq.heappush(blk.heap, (-blk.errs[s], blk.seq, s))
                    blk.seq += 1
                blk.v += float(ev.estimate[2 * j] + ev.estimate[2 * j + 1]) - pv
                blk.e += float(ref[2 * j] + ref[2 * j + 1]) - pe
                blk.n_regions += 1
                blk.evals += 2
                if blk.e <= tau_rel * abs(blk.v) or blk.e <= tau_abs / max(1, n_blocks):
                    blk.done = True
                elif blk.n_regions >= budget:
                    blk.done = True
                    blk.failed = True  # local 2048-region workspace full
                else:
                    next_live.append(blk)
            live_regions += k  # each step adds one region per live block
            live = next_live

        # Global accumulation and phase-II makespan.
        v_blocks = sum(blk.v for blk in blocks)
        e_blocks = sum(blk.e for blk in blocks)
        v_global = v_blocks + v_finished + overflow_v
        e_global = e_blocks + e_finished + overflow_e

        # A phase-II block is one 256-thread CUDA block owning 1/slots of
        # the device; it evaluates its regions sequentially.
        spec = dev.spec
        per_slot_rate = (
            spec.peak_gflops_fp64 * 1e9 * spec.eff_max * KERNEL_INEFFICIENCY
        ) / spec.parallel_slots
        sec_per_region = flops_region / per_slot_rate
        durations = [blk.evals * sec_per_region for blk in blocks]
        report = BlockScheduler(spec.parallel_slots).schedule(durations)
        dev.charge_makespan("phase2", report.makespan)
        self.last_phase2_report = report

        any_failed = any(blk.failed for blk in blocks) or overflow > 0 or pool_exhausted
        if e_global <= tau_abs:
            status = Status.CONVERGED_ABS
        elif v_global != 0.0 and e_global <= tau_rel * abs(v_global):
            status = Status.CONVERGED_REL
        elif any_failed:
            status = Status.MEMORY_EXHAUSTED
        else:
            status = Status.MAX_EVALUATIONS

        wall = time.perf_counter() - t0
        return IntegrationResult(
            estimate=v_global, errorest=e_global, status=status,
            neval=neval, nregions=total_regions, iterations=len(trace),
            method="two_phase", sim_seconds=dev.elapsed_seconds,
            wall_seconds=wall, trace=trace,
        )
