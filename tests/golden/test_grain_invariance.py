"""Host-lane numerics contract: a result does not depend on the chunk grain.

Every region's estimate and error are computed by fixed-order
contractions, so neither the evaluate chunk size, nor the pool width, nor
the BLAS thread count may move a single bit of a PAGANI result.  Each job
runs at four grains — from one chunk per sweep down to dozens — on numpy,
on a two-thread pool (whose chunks run concurrently without the serial
lane's scratch buffers) and on one- and two-worker process pools (whose
remote path ships the chunks to worker processes), and every run must
match the first one exactly.  The Genz oscillatory and corner-peak integrands evaluate
``x @ a`` per chunk, the shape most exposed to BLAS blocking.
"""

from __future__ import annotations

import pytest

from repro.backends import (
    BackendUnavailableError,
    ProcessNumpyBackend,
    ThreadedNumpyBackend,
)
from repro.core.pagani import PaganiConfig, PaganiIntegrator
from repro.integrands.catalog import named_integrand

GRAINS = (16_000_000, 1_048_576, 131_072, 32_768)
JOBS = (("5D-genz-oscillatory", 1e-7), ("5D-genz-corner_peak", 1e-8))


@pytest.fixture(scope="module")
def lanes():
    pools = [ThreadedNumpyBackend(num_threads=2)]
    try:
        for workers in (1, 2):
            pools.append(ProcessNumpyBackend(num_workers=workers))
    except BackendUnavailableError as exc:  # pragma: no cover - sandbox
        for bk in pools:
            bk.close()
        pytest.skip(f"process backend unavailable: {exc}")
    yield {
        "numpy": "numpy",
        "threaded:2": pools[0],
        "process:1": pools[1],
        "process:2": pools[2],
    }
    for bk in pools:
        bk.close()


def _bits(res):
    return (
        float(res.estimate).hex(),
        float(res.errorest).hex(),
        res.iterations,
        res.neval,
    )


@pytest.mark.parametrize("spec,rel_tol", JOBS, ids=[j[0] for j in JOBS])
def test_bits_do_not_depend_on_grain_or_lane(lanes, spec, rel_tol):
    f = named_integrand(spec)
    runs = {}
    for lane, backend in lanes.items():
        for grain in GRAINS:
            cfg = PaganiConfig(rel_tol=rel_tol, backend=backend, chunk_budget=grain)
            res = PaganiIntegrator(cfg).integrate(f, f.ndim)
            assert res.converged
            runs[lane, grain] = _bits(res)
    reference = runs["numpy", GRAINS[0]]
    moved = {key: bits for key, bits in runs.items() if bits != reference}
    assert not moved, f"reference {reference}, moved: {moved}"
