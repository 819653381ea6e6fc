"""Sharded-service behaviour: K worker rotations over one queue/cache.

The single-shard semantics are covered exhaustively in
``test_service.py`` (shards=1 is the default and the pre-sharding code
path); this module asserts what sharding adds — concurrent completion
under contention, shard-count-independent caching and bit-identity,
cancellation across shards — and what it must not change.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.api import integrate, serve_jobs
from repro.errors import ConfigurationError
from repro.integrands.catalog import named_integrand
from repro.service import IntegrationService, JobSpec, JobStatus


def test_shards_must_be_positive():
    with pytest.raises(ConfigurationError, match="shards"):
        IntegrationService(shards=0)


def test_shards_visible_in_stats_and_property():
    with IntegrationService(shards=3, max_concurrent=1) as svc:
        assert svc.shards == 3
        assert svc.stats()["shards"] == 3
        # spec-string backends resolve to one fresh instance per shard
        backends = {id(shard.backend) for shard in svc._shards}
        assert len(backends) == 3


def test_shared_instance_backend_is_honoured_across_shards():
    from repro.backends import NumpyBackend

    bk = NumpyBackend()
    with IntegrationService(shards=2, backend=bk) as svc:
        assert all(shard.backend is bk for shard in svc._shards)
        h = svc.submit("3D-f4", rel_tol=1e-3)
        assert h.result(timeout=300).converged


def test_completion_under_contention_bit_identical():
    """More jobs than slots across 2 shards: all complete, every result
    bit-identical to a cold integrate() of the same spec."""
    specs = ["3D-f4", "3D-f3", "3D-f2", "4D-f4"]
    refs = {}
    for spec in specs:
        f = named_integrand(spec)
        refs[spec] = integrate(f, f.ndim, rel_tol=1e-3)
    with IntegrationService(shards=2, max_concurrent=1, cache=False) as svc:
        handles = [svc.submit(spec, rel_tol=1e-3) for spec in specs * 2]
        assert svc.wait_all(timeout=300)
    for h in handles:
        res = h.result(timeout=0)
        ref = refs[h.spec.integrand]
        assert res.estimate == ref.estimate
        assert res.errorest == ref.errorest
        assert res.neval == ref.neval


def test_cache_replays_are_shard_independent():
    """A warm cache serves every duplicate bit-for-bit no matter which
    shard computed the entry."""
    jobs = [JobSpec("3D-f4", rel_tol=1e-3), JobSpec("3D-f3", rel_tol=1e-3)]
    with IntegrationService(shards=3, max_concurrent=2) as svc:
        first = serve_jobs(jobs, service=svc)
        second = serve_jobs(jobs, service=svc)
        stats = svc.stats()
    assert all(h.cache_hit for h in second)
    assert stats["cache"]["hits"] >= 2
    for a, b in zip(first, second):
        assert a.result(timeout=0).estimate == b.result(timeout=0).estimate
        assert a.result(timeout=0).errorest == b.result(timeout=0).errorest


def test_duplicates_served_without_recompute_under_shards():
    """Every duplicate of an in-flight or finished job is served by a
    cache hit or coalesces onto the in-flight run (no guaranteed split
    between the two under sharding, but the sum is exact)."""
    k = 6
    with IntegrationService(shards=2, max_concurrent=2) as svc:
        handles = [svc.submit("4D-f4", rel_tol=1e-4) for _ in range(k)]
        assert svc.wait_all(timeout=300)
        stats = svc.stats()
    results = [h.result(timeout=0) for h in handles]
    for res in results[1:]:
        assert res.estimate == results[0].estimate
    # Actual runs = jobs not served from cache/coalescing; concurrent
    # admission can race two shards into one duplicate run each, but
    # never more than one primary per shard.
    served_without_run = stats["cache"]["hits"] + stats["coalesced"]
    assert served_without_run >= k - svc.shards


def test_cross_shard_coalescing_stress_leaves_no_member_state():
    """More shards than cores race to admit, coalesce onto and retire
    duplicates under a short switch interval: every duplicate gets its
    twin's bits, and no member record, run slot or in-flight entry is
    left behind on any shard."""
    tols = (1e-3, 2e-3, 4e-3)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with IntegrationService(shards=3, max_concurrent=2) as svc:
            handles = [
                (tol, svc.submit("3D-f4", rel_tol=tol))
                for _ in range(8) for tol in tols
            ]
            assert svc.wait_all(timeout=300)
            for shard in svc._shards:
                assert shard.members == {}
                for sched in shard.schedulers.values():
                    assert sched.members == []
                    assert not sched.stats.iterations_served
            assert svc._inflight == {}
    finally:
        sys.setswitchinterval(old)
    first = {}
    for tol, handle in handles:
        res = handle.result(timeout=0)
        ref = first.setdefault(tol, res)
        assert res.estimate.hex() == ref.estimate.hex()
        assert res.errorest.hex() == ref.errorest.hex()


def test_queued_cancellation_with_shards():
    with IntegrationService(shards=2, max_concurrent=1, cache=False) as svc:
        blockers = [
            svc.submit("5D-f4", rel_tol=1e-5, priority=9) for _ in range(2)
        ]
        victim = svc.submit("3D-f4", rel_tol=1e-3, priority=1)
        assert victim.cancel()
        assert victim.status is JobStatus.CANCELLED
        for b in blockers:
            assert b.result(timeout=300).converged


def test_inflight_cancellation_with_shards():
    import time

    started = threading.Event()
    u = 1.0 / np.pi  # off-grid kink: slow convergence, slow rounds

    def slow(x):
        started.set()
        time.sleep(0.15)
        return np.exp(-20.0 * np.sum(np.abs(x - u), axis=1))

    slow.ndim = 2
    with IntegrationService(shards=2, max_concurrent=1, cache=False) as svc:
        h = svc.submit(slow, ndim=2, rel_tol=1e-9, max_iterations=50)
        assert started.wait(timeout=60)
        assert h.cancel()
        h.wait(timeout=300)
        assert h.status is JobStatus.CANCELLED


def test_failure_isolated_to_its_job_across_shards():
    def bad(x):
        raise RuntimeError("kaboom")

    bad.ndim = 3
    with IntegrationService(shards=2, max_concurrent=1, cache=False) as svc:
        ok = [svc.submit("3D-f4", rel_tol=1e-3) for _ in range(3)]
        doomed = svc.submit(bad, ndim=3)
        assert svc.wait_all(timeout=300)
    assert doomed.status is JobStatus.FAILED
    for h in ok:
        assert h.result(timeout=0).converged


def test_serve_jobs_shards_keyword():
    handles = serve_jobs(
        [{"integrand": "3D-f4", "rel_tol": 1e-3}] * 4, shards=2
    )
    assert [h.status for h in handles] == [JobStatus.DONE] * 4


def test_sharded_service_on_process_backend():
    """Each shard pins its own process backend instance end to end."""
    from repro.backends import BackendUnavailableError, new_backend

    try:
        new_backend("process:1").close()
    except BackendUnavailableError as exc:  # pragma: no cover - sandbox
        pytest.skip(f"process backend unavailable: {exc}")
    ref = None
    with IntegrationService(
        shards=2, max_concurrent=1, backend="process:1", cache=False
    ) as svc:
        assert len({id(s.backend) for s in svc._shards}) == 2
        handles = [svc.submit("3D-f4", rel_tol=1e-3) for _ in range(3)]
        for h in handles:
            res = h.result(timeout=300)
            if ref is None:
                ref = res
            assert res.estimate == ref.estimate
        for shard in svc._shards:
            shard.backend.close()
