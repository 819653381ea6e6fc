"""IntegrationService end-to-end: cache bit-identity, priority order,
cancellation, failure isolation, coalescing, asyncio bridge."""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.api import integrate, serve_jobs
from repro.errors import ConfigurationError
from repro.integrands.catalog import named_integrand
from repro.service import (
    IntegrationService,
    JobFailedError,
    JobSpec,
    JobStatus,
    ServiceClosedError,
)
from repro.service.aio import AsyncIntegrationService


def make_slow_kink(delay: float = 0.05, ndim: int = 2, key: str = "slow"):
    """A *slowly converging* integrand (off-grid |x| kink: 5 iterations
    at rel_tol 1e-4, ~17 at 1e-9) whose every chunk evaluation also
    sleeps, so rotation rounds are slow enough for deterministic
    cancellation tests."""
    u = 1.0 / np.pi  # kink plane never aligns with region boundaries

    def fn(x: np.ndarray) -> np.ndarray:
        time.sleep(delay)
        return np.exp(-20.0 * np.sum(np.abs(x - u), axis=1))

    fn.ndim = ndim
    fn.cache_key = key
    fn.sign_definite = True
    return fn


# ---------------------------------------------------------------------------
# Cache-hit bit-identity (the headline contract)
# ---------------------------------------------------------------------------
def test_cache_hit_is_bit_identical_to_fresh_run():
    with IntegrationService(max_concurrent=2) as svc:
        cold = svc.submit("3D-f4", rel_tol=1e-5)
        cold_res = cold.result(timeout=120)
        hot = svc.submit("3D-f4", rel_tol=1e-5)
        hot_res = hot.result(timeout=120)

    assert not cold.cache_hit and hot.cache_hit
    # The replay is bit-identical to the cached run...
    assert hot_res.estimate == cold_res.estimate
    assert hot_res.errorest == cold_res.errorest
    assert hot_res.iterations == cold_res.iterations
    assert hot_res.neval == cold_res.neval
    assert hot_res.status is cold_res.status
    # ...and the cached run itself is bit-identical to a plain
    # integrate() call on the numpy backend (same config, same device).
    f = named_integrand("3d-f4")
    fresh = integrate(f, f.ndim, rel_tol=1e-5)
    assert cold_res.estimate == fresh.estimate
    assert cold_res.errorest == fresh.errorest
    assert cold_res.iterations == fresh.iterations
    assert cold_res.neval == fresh.neval


def test_different_tolerances_do_not_share_cache():
    with IntegrationService() as svc:
        a = svc.submit("3D-f4", rel_tol=1e-3)
        b = svc.submit("3D-f4", rel_tol=1e-4)
        a.result(timeout=120), b.result(timeout=120)
    assert not b.cache_hit
    assert a.stats.fingerprint != b.stats.fingerprint


def test_uncacheable_callable_runs_fine():
    def f(x):
        return np.ones(x.shape[0])

    with IntegrationService() as svc:
        h = svc.submit(f, ndim=3, rel_tol=1e-3)
        res = h.result(timeout=120)
    assert res.converged and abs(res.estimate - 1.0) < 1e-6
    assert h.stats.fingerprint is None and not h.cache_hit


def test_cache_disabled_recomputes():
    with IntegrationService(cache=False) as svc:
        a = svc.submit("3D-f4", rel_tol=1e-3)
        b = svc.submit("3D-f4", rel_tol=1e-3)
        ra, rb = a.result(timeout=120), b.result(timeout=120)
    assert not a.cache_hit and not b.cache_hit
    assert ra.estimate == rb.estimate  # deterministic even without cache


# ---------------------------------------------------------------------------
# Priority semantics
# ---------------------------------------------------------------------------
def test_priority_order_completion_under_contention():
    """Equal-work jobs, all live at once: the weighted rotation makes
    completion order follow priority order."""
    with IntegrationService(max_concurrent=4, cache=False) as svc:
        handles = {
            p: svc.submit(
                "4D-genz-gaussian", rel_tol=1e-6, priority=p, label=f"p{p}"
            )
            for p in (1, 2, 4, 8)
        }
        assert svc.wait_all(timeout=300)
    order = sorted(
        handles.values(), key=lambda h: h.stats.completion_index
    )
    assert [h.spec.priority for h in order] == [8, 4, 2, 1]


def test_priority_admission_order():
    """With one slot, queued jobs are admitted strictly by priority."""
    slow = make_slow_kink(delay=0.02, key="admission")
    with IntegrationService(max_concurrent=1, cache=False) as svc:
        gate = svc.submit(slow, ndim=2, rel_tol=1e-4)  # occupies the slot
        low = svc.submit("3D-f3", rel_tol=1e-3, priority=1)
        high = svc.submit("3D-f4", rel_tol=1e-3, priority=5)
        assert svc.wait_all(timeout=300)
    assert gate.status is JobStatus.DONE
    assert high.stats.completion_index < low.stats.completion_index
    assert high.stats.started_at <= low.stats.started_at


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------
def test_cancel_queued_job_never_runs():
    slow = make_slow_kink(delay=0.05, key="gate")
    with IntegrationService(max_concurrent=1, cache=False) as svc:
        gate = svc.submit(slow, ndim=2, rel_tol=1e-4)
        queued = svc.submit("3D-f4", rel_tol=1e-4)
        assert queued.status is JobStatus.QUEUED
        assert queued.cancel()
        assert queued.status is JobStatus.CANCELLED
        with pytest.raises(CancelledError):
            queued.result(timeout=0)
        assert gate.result(timeout=300).converged
    assert queued.stats.started_at is None  # it never entered the rotation
    assert not queued.cancel()  # second cancel reports already-terminal


def test_cancel_inflight_job():
    slow = make_slow_kink(delay=0.15, key="inflight")
    with IntegrationService(max_concurrent=2, cache=False) as svc:
        victim = svc.submit(slow, ndim=2, rel_tol=1e-9, max_iterations=50)
        bystander = svc.submit("3D-f4", rel_tol=1e-3)
        deadline = time.monotonic() + 30
        while victim.status is JobStatus.QUEUED and time.monotonic() < deadline:
            time.sleep(0.005)
        assert victim.status is JobStatus.RUNNING
        assert victim.cancel()
        assert victim.wait(timeout=60)
        assert victim.status is JobStatus.CANCELLED
        with pytest.raises(CancelledError):
            victim.result(timeout=0)
        assert bystander.result(timeout=300).converged


def test_cancel_primary_requeues_coalesced_follower():
    slow = make_slow_kink(delay=0.15, key="promote")
    with IntegrationService(max_concurrent=2) as svc:
        primary = svc.submit(slow, ndim=2, rel_tol=1e-4)
        follower = svc.submit(slow, ndim=2, rel_tol=1e-4)
        deadline = time.monotonic() + 30
        while svc.stats()["coalesced"] < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert svc.stats()["coalesced"] == 1
        assert primary.cancel()
        follower_res = follower.result(timeout=300)
    assert primary.status is JobStatus.CANCELLED
    assert follower.status is JobStatus.DONE
    assert follower_res.converged
    # the retry recomputed from scratch: the coalescing marks came off
    assert not follower.cache_hit
    assert follower.stats.coalesced_with is None


# ---------------------------------------------------------------------------
# Failure isolation & lifecycle
# ---------------------------------------------------------------------------
def test_failing_integrand_isolated_from_other_jobs():
    def bomb(x):
        raise RuntimeError("integrand exploded")

    bomb.ndim = 3
    with IntegrationService(max_concurrent=2) as svc:
        bad = svc.submit(bomb, ndim=3)
        good = svc.submit("3D-f4", rel_tol=1e-3)
        assert good.result(timeout=300).converged
        assert bad.wait(timeout=60)
    assert bad.status is JobStatus.FAILED
    with pytest.raises(JobFailedError) as excinfo:
        bad.result(timeout=0)
    assert "exploded" in str(excinfo.value.__cause__)
    assert isinstance(bad.exception(timeout=0), RuntimeError)


def test_bad_spec_fails_job_not_service():
    with IntegrationService() as svc:
        bad = svc.submit("9D-f99")  # resolves (and fails) in the worker
        good = svc.submit("3D-f4", rel_tol=1e-3)
        assert good.result(timeout=300).converged
        assert bad.wait(timeout=60)
    assert bad.status is JobStatus.FAILED
    assert isinstance(bad.exception(timeout=0), ConfigurationError)


def test_submit_validation_is_eager():
    with IntegrationService() as svc:
        with pytest.raises(ConfigurationError):
            svc.submit("3D-f4", priority=0)
        with pytest.raises(ConfigurationError):
            svc.submit("3D-f4", rel_tol=2.0)
        with pytest.raises(ConfigurationError):
            svc.submit_spec(JobSpec("3D-f4", max_iterations=0))


def test_submit_after_shutdown_raises():
    svc = IntegrationService()
    svc.shutdown(wait=True)
    with pytest.raises(ServiceClosedError):
        svc.submit("3D-f4")


def test_shutdown_cancel_pending_drops_queue():
    slow = make_slow_kink(delay=0.05, key="drain")
    svc = IntegrationService(max_concurrent=1, cache=False)
    gate = svc.submit(slow, ndim=2, rel_tol=1e-4)
    queued = svc.submit("3D-f4", rel_tol=1e-6)
    deadline = time.monotonic() + 30
    while gate.status is JobStatus.QUEUED and time.monotonic() < deadline:
        time.sleep(0.005)  # cancel_pending must only hit still-queued jobs
    svc.shutdown(wait=True, cancel_pending=True)
    assert gate.status is JobStatus.DONE  # running jobs always finish
    assert queued.status is JobStatus.CANCELLED


def test_coalescing_runs_once():
    slow = make_slow_kink(delay=0.1, key="coalesce")
    calls = []
    inner = slow

    def counting(x):
        calls.append(x.shape[0])
        return inner(x)

    counting.ndim = 2
    counting.cache_key = "coalesce"
    counting.sign_definite = True
    with IntegrationService(max_concurrent=4) as svc:
        a = svc.submit(counting, ndim=2, rel_tol=1e-4)
        b = svc.submit(counting, ndim=2, rel_tol=1e-4)
        ra, rb = a.result(timeout=300), b.result(timeout=300)
    assert svc.stats()["coalesced"] == 1
    assert b.cache_hit and b.stats.coalesced_with == a.job_id
    assert ra.estimate == rb.estimate and ra.errorest == rb.errorest
    assert ra.iterations == rb.iterations


def test_coalesced_follower_raises_twin_priority():
    """A high-priority duplicate must speed up the shared run, not crawl
    at its twin's rate."""
    slow_a = make_slow_kink(delay=0.03, key="boost-a")
    slow_b = make_slow_kink(delay=0.03, key="boost-b")
    with IntegrationService(max_concurrent=4) as svc:
        a = svc.submit(slow_a, ndim=2, rel_tol=1e-6, priority=1)
        b = svc.submit(slow_b, ndim=2, rel_tol=1e-6, priority=1)
        deadline = time.monotonic() + 30
        while (
            JobStatus.QUEUED in (a.status, b.status)
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)  # the duplicate must find a already in flight
        dup = svc.submit(slow_a, ndim=2, rel_tol=1e-6, priority=8)
        assert svc.wait_all(timeout=300)
    assert dup.cache_hit and dup.stats.coalesced_with == a.job_id
    # a (boosted to weight 8 by its follower) beats the equal-work b
    assert a.stats.completion_index < b.stats.completion_index


def test_finished_members_are_retired():
    """A long-lived rotation must not pin finished runs (results,
    traces, region arrays) for the service's lifetime."""
    with IntegrationService(max_concurrent=2, cache=False) as svc:
        for _ in range(3):
            svc.submit("3D-f4", rel_tol=1e-3)
        assert svc.wait_all(timeout=300)
        retained = [
            run
            for shard in svc._shards
            for sched in shard.schedulers.values()
            for run in sched.members
        ]
        members = [m for shard in svc._shards for m in shard.members.values()]
    assert retained == [] and members == []  # every member was retired


def test_long_lived_service_keeps_no_per_member_state():
    """docs/service.md: a long-running service does not grow with total
    jobs served — no run slots, stats entries or in-flight entries are
    left behind by finished members."""
    n_jobs = 300
    with IntegrationService(
        max_concurrent=4, cache=False, history_limit=8
    ) as svc:
        for _ in range(n_jobs):
            svc.submit("3D-f4", rel_tol=1e-3)
        assert svc.wait_all(timeout=600)
        schedulers = [
            sched for shard in svc._shards
            for sched in shard.schedulers.values()
        ]
        assert [len(sched.members) for sched in schedulers] == [0]
        assert all(not sched.stats.iterations_served for sched in schedulers)
        assert all(not sched.stats.exit_round for sched in schedulers)
        assert svc._inflight == {}
        assert svc.stats()["by_status"]["done"] == n_jobs


class _Boom(Exception):
    pass


def _raising(exc: BaseException):
    def fn(x):
        raise exc

    fn.ndim = 3
    return fn


def test_mixed_backends_in_one_shard():
    """A pinned shard that also runs per-job backend overrides fuses each
    backend's members in its own round: results stay bit-identical to
    plain integrate() calls and a failure stays with its own job."""
    jobs = [
        ("3D-f4", 1e-4, None),
        ("3D-f4", 1e-5, "threaded:2"),
        ("3D-f5", 1e-3, None),
        ("3D-f4", 1e-3, "threaded:2"),
        ("3D-f4", 1e-5, None),
        ("3D-f5", 1e-3, "threaded:2"),
    ]
    errors = {None: _Boom("numpy member"), "threaded:2": _Boom("threaded member")}
    with IntegrationService(max_concurrent=4, backend="numpy") as svc:
        good = [
            svc.submit(spec, rel_tol=tol, backend=bk) for spec, tol, bk in jobs[:2]
        ]
        bad = {
            bk: svc.submit(_raising(exc), ndim=3, rel_tol=1e-3, backend=bk)
            for bk, exc in errors.items()
        }
        good += [
            svc.submit(spec, rel_tol=tol, backend=bk) for spec, tol, bk in jobs[2:]
        ]
        assert svc.wait_all(timeout=300)
    for (spec, tol, bk), handle in zip(jobs, good):
        res = handle.result(timeout=0)
        f = named_integrand(spec)
        ref = integrate(f, f.ndim, rel_tol=tol, backend=bk or "numpy")
        assert res.estimate.hex() == ref.estimate.hex(), (spec, tol, bk)
        assert res.errorest.hex() == ref.errorest.hex(), (spec, tol, bk)
    for bk, handle in bad.items():
        assert handle.status is JobStatus.FAILED
        assert handle.exception(timeout=0) is errors[bk]


def test_job_backend_naming_the_default_reuses_its_pool():
    """A job spec with the default's family *and* width runs on the
    default instance; another width still gets its own pool."""
    from repro.backends import ThreadedNumpyBackend

    with IntegrationService(max_concurrent=2, backend="threaded:2") as svc:
        same = svc.submit("3D-f4", rel_tol=1e-3, backend="threaded:2")
        assert same.result(timeout=300).converged
        (shard,) = svc._shards
        pools = {id(s.backend) for s in shard.schedulers.values()}
        assert pools == {id(shard.backend)}

        other = svc.submit("3D-f4", rel_tol=1e-4, backend="threaded:3")
        assert other.result(timeout=300).converged
        widths = sorted(
            s.backend.num_threads for s in shard.schedulers.values()
            if isinstance(s.backend, ThreadedNumpyBackend)
        )
        # the default is listed under None and "threaded:2"
        assert widths == [2, 2, 3]
        assert len({id(s.backend) for s in shard.schedulers.values()}) == 2


def test_shutdown_leaves_caller_owned_backend_open():
    """A job whose backend spec names the caller's own default instance
    runs on it; shutdown must not close a backend the service did not
    build."""
    from repro.backends.numpy_backend import NumpyBackend

    class CountingNumpy(NumpyBackend):
        closed = 0

        def close(self):
            type(self).closed += 1

    owned = CountingNumpy()
    svc = IntegrationService(max_concurrent=2, backend=owned)
    res = svc.submit("3D-f4", rel_tol=1e-3, backend="numpy").result(timeout=300)
    svc.shutdown()
    assert res.converged
    assert CountingNumpy.closed == 0


def test_raising_done_callback_is_logged(caplog):
    def bad_callback(handle):
        raise RuntimeError("callback bug")

    with caplog.at_level("ERROR", logger="repro.service"):
        with IntegrationService(max_concurrent=1) as svc:
            # one slot, held by a slow job: the callback is registered
            # while its job is still queued
            svc.submit(make_slow_kink(delay=0.02), rel_tol=1e-5)
            handle = svc.submit("3D-f4", rel_tol=1e-3)
            handle.add_done_callback(bad_callback)
            assert handle.result(timeout=300).converged
            assert svc.wait_all(timeout=300)
    records = [
        r for r in caplog.records
        if r.name == "repro.service" and f"#{handle.job_id}" in r.getMessage()
    ]
    assert len(records) == 1
    assert records[0].exc_info[0] is RuntimeError


def test_history_limit_prunes_but_stats_stay_truthful():
    n_jobs = 40
    with IntegrationService(max_concurrent=2, history_limit=4) as svc:
        handles = [svc.submit("3D-f4", rel_tol=1e-3) for _ in range(n_jobs)]
        assert svc.wait_all(timeout=300)  # waits on retained handles only
        for h in handles:  # clients' own references still resolve
            assert h.result(timeout=60).converged
        stats = svc.stats()
    assert len(svc.jobs()) < n_jobs  # history was actually pruned
    assert stats["submitted"] == n_jobs
    assert stats["by_status"]["done"] == n_jobs


def test_stats_snapshot_shape():
    with IntegrationService() as svc:
        svc.submit("3D-f4", rel_tol=1e-3).result(timeout=300)
        stats = svc.stats()
    assert stats["submitted"] == 1
    assert stats["by_status"]["done"] == 1
    assert stats["cache"]["misses"] == 1
    assert stats["rounds"] >= 1
    assert stats["backend"] == "numpy"


def test_true_value_attached_like_integrate():
    with IntegrationService() as svc:
        res = svc.submit("3D-f4", rel_tol=1e-4).result(timeout=300)
    assert res.true_value is not None
    assert res.true_rel_error() is not None


# ---------------------------------------------------------------------------
# serve_jobs convenience + asyncio wrapper
# ---------------------------------------------------------------------------
def test_serve_jobs_accepts_dicts_and_specs():
    handles = serve_jobs(
        [
            {"integrand": "3D-f4", "rel_tol": 1e-4, "priority": 2},
            JobSpec("3D-f3", rel_tol=1e-3),
            {"integrand": "3D-f4", "rel_tol": 1e-4},  # duplicate -> hit
        ],
        max_concurrent=2,
    )
    assert [h.status for h in handles] == [JobStatus.DONE] * 3
    assert handles[2].cache_hit
    assert handles[2].result(timeout=0).estimate == handles[0].result(timeout=0).estimate


def test_async_service_gather():
    async def run():
        async with AsyncIntegrationService(max_concurrent=2) as svc:
            return await asyncio.gather(
                svc.integrate("3D-f4", rel_tol=1e-4, priority=2),
                svc.integrate("3D-f3", rel_tol=1e-3),
            )

    r1, r2 = asyncio.run(run())
    assert r1.converged and r2.converged


def test_async_future_cancellation():
    slow = make_slow_kink(delay=0.15, key="async-cancel")

    async def run():
        async with AsyncIntegrationService(max_concurrent=1, cache=False) as svc:
            fut = svc.submit(slow, ndim=2, rel_tol=1e-9, max_iterations=50)
            await asyncio.sleep(0.3)  # let it enter the rotation
            fut.cancel()
            with pytest.raises(asyncio.CancelledError):
                await fut

    asyncio.run(run())


def test_async_failure_propagates_like_sync():
    def bomb(x):
        raise ValueError("nope")

    bomb.ndim = 2

    async def run():
        async with AsyncIntegrationService() as svc:
            # same contract as JobHandle.result(): JobFailedError with
            # the integrand's exception chained
            with pytest.raises(JobFailedError) as excinfo:
                await svc.integrate(bomb, ndim=2)
            assert isinstance(excinfo.value.__cause__, ValueError)

    asyncio.run(run())
