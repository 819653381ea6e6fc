"""ResultCache: fingerprint contract, LRU behaviour, isolation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.result import IntegrationResult, Status
from repro.service import ResultCache, job_fingerprint


def fp(**overrides):
    base = dict(
        integrand_id="5d-f4",
        ndim=5,
        bounds=np.array([(0.0, 1.0)] * 5),
        rel_tol=1e-4,
        abs_tol=1e-20,
        backend="numpy",
        max_iterations=None,
        relerr_filtering=True,
    )
    base.update(overrides)
    return job_fingerprint(**base)


def result(estimate=1.25, errorest=1e-6):
    return IntegrationResult(
        estimate=estimate, errorest=errorest, status=Status.CONVERGED_REL,
        neval=1000, nregions=64, iterations=3, method="pagani",
    )


def test_fingerprint_is_deterministic():
    assert fp() == fp()


@pytest.mark.parametrize(
    "change",
    [
        {"integrand_id": "5d-f5"},
        {"ndim": 4, "bounds": np.array([(0.0, 1.0)] * 4)},
        {"bounds": np.array([(0.0, 2.0)] + [(0.0, 1.0)] * 4)},
        {"rel_tol": 1e-5},
        {"abs_tol": 1e-19},
        {"backend": "threaded"},
        {"max_iterations": 10},
        {"relerr_filtering": False},
        {"collect_traces": True},
    ],
)
def test_fingerprint_sensitive_to_every_field(change):
    assert fp(**change) != fp()


def test_fingerprint_exact_not_decimal():
    """float.hex keying: tolerances one ULP apart must not alias."""
    assert fp(rel_tol=1e-4) != fp(rel_tol=np.nextafter(1e-4, 1.0))


def test_hit_returns_equal_bits():
    cache = ResultCache()
    original = result(estimate=0.123456789012345678, errorest=3.7e-9)
    cache.put(fp(), original)
    replay = cache.get(fp())
    assert replay is not original
    assert replay.estimate == original.estimate
    assert replay.errorest == original.errorest
    assert replay.status is original.status
    assert replay.iterations == original.iterations
    assert replay.neval == original.neval


def test_copies_isolate_cache_from_mutation():
    cache = ResultCache()
    mine = result()
    cache.put(fp(), mine)
    mine.estimate = -999.0  # producer mutates its copy after caching
    first = cache.get(fp())
    first.estimate = 777.0  # consumer mutates its replay
    second = cache.get(fp())
    assert second.estimate == 1.25


def test_miss_and_hit_counters():
    cache = ResultCache()
    assert cache.get(fp()) is None
    cache.put(fp(), result())
    assert cache.get(fp()) is not None
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["hit_rate"] == 0.5
    assert cache.hit_rate == 0.5


def test_lru_eviction_order():
    cache = ResultCache(max_entries=2)
    keys = [fp(rel_tol=t) for t in (1e-3, 1e-4, 1e-5)]
    cache.put(keys[0], result())
    cache.put(keys[1], result())
    assert cache.get(keys[0]) is not None  # refresh key 0
    cache.put(keys[2], result())  # evicts key 1 (least recently used)
    assert keys[1] not in cache
    assert keys[0] in cache and keys[2] in cache
    assert cache.evictions == 1
    assert len(cache) == 2


def test_put_same_key_replaces():
    cache = ResultCache(max_entries=2)
    cache.put(fp(), result(estimate=1.0))
    cache.put(fp(), result(estimate=2.0))
    assert len(cache) == 1
    assert cache.get(fp()).estimate == 2.0


def test_clear():
    cache = ResultCache()
    cache.put(fp(), result())
    cache.clear()
    assert len(cache) == 0
    assert fp() not in cache


def test_rejects_silly_capacity():
    with pytest.raises(ValueError):
        ResultCache(max_entries=0)


# ---------------------------------------------------------------------------
# Snapshot copies happen OUTSIDE the cache lock (contention bugfix)
# ---------------------------------------------------------------------------
def _assert_copies_unlocked(cache, monkeypatch):
    """Wrap ``copy.deepcopy`` so every IntegrationResult copy proves the
    cache lock is free while it runs — a reader stalled inside deepcopy
    must not serialise every other cache access behind it."""
    import copy as copy_mod

    observed = []
    real = copy_mod.deepcopy

    def spying(obj, *a, **kw):
        if isinstance(obj, IntegrationResult):
            free = cache._lock.acquire(blocking=False)
            if free:
                cache._lock.release()
            observed.append(free)
        return real(obj, *a, **kw)

    monkeypatch.setattr(copy_mod, "deepcopy", spying)
    return observed


def test_resultcache_copies_outside_lock(monkeypatch):
    cache = ResultCache()
    observed = _assert_copies_unlocked(cache, monkeypatch)
    cache.put(fp(), result())
    got = cache.get(fp())
    assert got is not None
    assert len(observed) >= 2  # put snapshot + get snapshot
    assert all(observed), "deepcopy ran while holding the cache lock"


def test_tiered_cache_copies_outside_lock(tmp_path, monkeypatch):
    from repro.service import TieredResultCache

    cache = TieredResultCache(tmp_path, max_entries=1)
    observed = _assert_copies_unlocked(cache, monkeypatch)
    cache.put(fp(), result())
    assert cache.get(fp()) is not None
    # Evict the entry from the memory tier, then re-read: the durable
    # promotion path must also copy outside the lock.
    cache.put(fp(rel_tol=1e-5), result())
    assert cache.get(fp()) is not None
    assert len(observed) >= 3
    assert all(observed), "deepcopy ran while holding the cache lock"
    cache.close()


def test_concurrent_readers_not_serialised_by_slow_copy(monkeypatch):
    """A slow deepcopy in one reader must not block another reader's
    get(): with the copy outside the lock both finish concurrently."""
    import copy as copy_mod
    import threading
    import time

    cache = ResultCache()
    cache.put(fp(), result())
    real = copy_mod.deepcopy
    release = threading.Event()
    stalled = threading.Event()

    def slow(obj, *a, **kw):
        if isinstance(obj, IntegrationResult) and not stalled.is_set():
            stalled.set()
            assert release.wait(5)
        return real(obj, *a, **kw)

    monkeypatch.setattr(copy_mod, "deepcopy", slow)
    t = threading.Thread(target=cache.get, args=(fp(),))
    t.start()
    assert stalled.wait(5)
    # First reader is parked inside deepcopy; the lock must be free.
    t0 = time.perf_counter()
    assert cache._lock.acquire(timeout=1)
    cache._lock.release()
    assert time.perf_counter() - t0 < 0.5
    release.set()
    t.join(timeout=5)
    assert not t.is_alive()
