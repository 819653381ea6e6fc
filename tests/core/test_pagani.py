"""End-to-end PAGANI behaviour: convergence, statuses, flags, traces."""

import math

import numpy as np
import pytest

from repro.core import PaganiConfig, PaganiIntegrator, Status
from repro.errors import ConfigurationError
from repro.gpu.device import DeviceSpec, VirtualDevice
from repro.integrands.genz import GenzFamily, make_genz
from tests.conftest import gaussian_nd


def _run(integrand, tol, **cfg_kwargs):
    cfg = PaganiConfig(rel_tol=tol, **cfg_kwargs)
    return PaganiIntegrator(cfg).integrate(integrand, integrand.ndim)


# ---------------------------------------------------------------------------
# Convergence on analytic integrands
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("ndim", [2, 3, 4])
@pytest.mark.parametrize("tol", [1e-4, 1e-7])
def test_gaussian_converges_within_claimed_error(ndim, tol):
    g = gaussian_nd(ndim)
    res = _run(g, tol)
    assert res.status is Status.CONVERGED_REL
    true_rel = abs(res.estimate - g.reference) / g.reference
    assert true_rel <= tol


@pytest.mark.parametrize(
    "family", [GenzFamily.PRODUCT_PEAK, GenzFamily.GAUSSIAN, GenzFamily.C0,
               GenzFamily.CORNER_PEAK]
)
def test_genz_families_converge(family):
    f = make_genz(family, ndim=4, seed=3)
    res = _run(f, 1e-6)
    assert res.converged
    true_rel = abs(res.estimate - f.reference) / abs(f.reference)
    assert true_rel <= 1e-5


def test_oscillatory_with_filtering_disabled():
    f = make_genz(GenzFamily.OSCILLATORY, ndim=3, seed=1)
    res = _run(f, 1e-7, relerr_filtering=False)
    assert res.converged
    assert abs(res.estimate - f.reference) / abs(f.reference) <= 1e-7


def test_constant_integrand_converges_immediately():
    from repro.integrands.base import Integrand

    c = Integrand(fn=lambda x: np.full(x.shape[0], 3.0), ndim=3, reference=3.0)
    res = _run(c, 1e-6)
    assert res.converged
    assert res.iterations == 1
    assert res.estimate == pytest.approx(3.0, rel=1e-12)


def test_zero_integrand():
    from repro.integrands.base import Integrand

    z = Integrand(fn=lambda x: np.zeros(x.shape[0]), ndim=2, reference=0.0)
    res = _run(z, 1e-6)
    assert res.estimate == 0.0
    assert res.status in (Status.CONVERGED_ABS, Status.CONVERGED_REL)


def test_abs_tol_termination():
    g = gaussian_nd(3, c=5000.0)  # tiny integral
    cfg = PaganiConfig(rel_tol=1e-14, abs_tol=1e-6)
    res = PaganiIntegrator(cfg).integrate(g, 3)
    assert res.status is Status.CONVERGED_ABS
    assert res.errorest <= 1e-6


def test_custom_bounds_match_scaled_reference():
    """∫ exp(-sum x) over [0,2]^3 = (1-e^-2)^3."""
    from repro.integrands.base import Integrand

    f = Integrand(fn=lambda x: np.exp(-np.sum(x, axis=1)), ndim=3)
    res = PaganiIntegrator(PaganiConfig(rel_tol=1e-8)).integrate(
        f, 3, bounds=[(0.0, 2.0)] * 3
    )
    truth = (1.0 - math.exp(-2.0)) ** 3
    assert res.converged
    assert res.estimate == pytest.approx(truth, rel=1e-8)


def test_negative_integrand_sign_definite():
    """Everything-negative integrands satisfy Lemma 3.1 too."""
    from repro.integrands.base import Integrand

    g = gaussian_nd(3)
    f = Integrand(fn=lambda x: -g.fn(x), ndim=3, reference=-g.reference)
    res = _run(f, 1e-6)
    assert res.converged
    assert res.estimate == pytest.approx(-g.reference, rel=1e-6)


# ---------------------------------------------------------------------------
# Statuses and resource behaviour
# ---------------------------------------------------------------------------
def test_max_iterations_flag():
    g = gaussian_nd(4, c=2000.0)
    res = _run(g, 1e-10, max_iterations=3)
    assert res.status is Status.MAX_ITERATIONS
    assert res.iterations == 3
    assert not res.converged
    assert res.estimate != 0.0  # estimates still returned


def test_memory_exhaustion_on_tiny_device():
    g = gaussian_nd(5, c=3000.0)
    dev = VirtualDevice(DeviceSpec.scaled(mem_mb=1, name="tiny"))
    cfg = PaganiConfig(rel_tol=1e-9, max_iterations=40)
    res = PaganiIntegrator(cfg, device=dev).integrate(g, 5)
    assert res.status is Status.MEMORY_EXHAUSTED
    # the flagged result still carries the best-so-far estimates
    assert res.estimate > 0.0
    assert res.errorest > 0.0


def test_device_memory_released_after_run():
    dev = VirtualDevice(DeviceSpec.scaled(mem_mb=16))
    PaganiIntegrator(PaganiConfig(rel_tol=1e-4), device=dev).integrate(
        gaussian_nd(3), 3
    )
    assert dev.memory.in_use == 0


# ---------------------------------------------------------------------------
# Trace consistency
# ---------------------------------------------------------------------------
def test_trace_accounting_identities():
    g = gaussian_nd(3)
    res = _run(g, 1e-7)
    assert res.trace, "trace must be collected by default"
    for rec in res.trace:
        assert rec.n_active + rec.n_finished_relerr + rec.n_finished_threshold == rec.n_regions
        assert rec.neval > 0
    # iteration regions double at most (minus filtering)
    for a, b in zip(res.trace, res.trace[1:]):
        assert b.n_regions <= 2 * a.n_active
    # nregions is the sum over trace levels
    assert res.nregions == sum(rec.n_regions for rec in res.trace)


def test_trace_can_be_disabled():
    g = gaussian_nd(2)
    res = PaganiIntegrator(PaganiConfig(rel_tol=1e-4)).integrate(
        g, 2, collect_trace=False
    )
    assert res.trace == []
    assert res.converged


def test_sim_time_positive_and_evaluate_is_largest_kernel():
    """At unit-test scale launch overheads are significant (the paper's own
    point about small workloads under-utilising the device), so we assert
    dominance among kernels here; the >90 % share at production scale is
    demonstrated by benchmarks/bench_breakdown.py."""
    g = gaussian_nd(4, c=200.0)
    integ = PaganiIntegrator(PaganiConfig(rel_tol=1e-7))
    res = integ.integrate(g, 4)
    assert res.sim_seconds > 0
    stats = integ.device.stats()
    largest = max(stats.items(), key=lambda kv: kv[1].seconds)[0]
    assert largest == "evaluate"


# ---------------------------------------------------------------------------
# Configuration validation and knobs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"rel_tol": 0.0},
        {"rel_tol": 2.0},
        {"abs_tol": -1.0},
        {"max_iterations": 0},
        {"error_model": "nope"},
        {"initial_splits": 0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        PaganiIntegrator(PaganiConfig(**kwargs))


def test_bad_runtime_tolerance_rejected():
    with pytest.raises(ConfigurationError):
        PaganiIntegrator().integrate(gaussian_nd(2), 2, rel_tol=0.0)


def test_bad_bounds_shape_rejected():
    with pytest.raises(ConfigurationError):
        PaganiIntegrator().integrate(gaussian_nd(2), 2, bounds=[(0, 1)] * 3)


def test_initial_splits_override():
    cfg = PaganiConfig(initial_splits=3)
    assert cfg.splits_for(5) == 3
    auto = PaganiConfig(init_target=2048)
    assert auto.splits_for(8) >= 2
    assert auto.splits_for(2) ** 2 >= 2048


def test_four_difference_error_model_still_converges():
    # the paper-verbatim four-difference error is far more conservative, so
    # use a 2-D case where the extra subdivisions stay cheap
    g = gaussian_nd(2)
    res = _run(g, 1e-5, error_model="four_difference")
    assert res.converged
    assert abs(res.estimate - g.reference) / g.reference <= 1e-5


def test_two_level_disabled_still_converges():
    g = gaussian_nd(3)
    res = _run(g, 1e-5, two_level=False)
    assert res.converged


def test_threshold_traces_recorded_when_triggered():
    # Force memory pressure so Algorithm 3 runs.
    g = gaussian_nd(4, c=1500.0)
    dev = VirtualDevice(DeviceSpec.scaled(mem_mb=4, name="small"))
    integ = PaganiIntegrator(PaganiConfig(rel_tol=1e-8, max_iterations=25), device=dev)
    integ.integrate(g, 4)
    assert len(integ.threshold_traces) >= 1


@pytest.mark.parametrize(
    "backend, chunk_budget, expected",
    [
        # no explicit grain: the backend's declared one (process: 1 Mi)
        ("process", None, 1_048_576),
        # a backend without one: the cache-sized default
        ("numpy", None, 131_072),
        # an explicit grain wins over the backend's
        ("process", 50_000, 50_000),
    ],
)
def test_run_resolves_evaluate_grain_from_backend(
    monkeypatch, backend, chunk_budget, expected
):
    """A direct PaganiIntegrator evaluates at the grain integrate(),
    integrate_many and the service use on the same backend."""
    import repro.core.pagani as pagani
    from repro.backends import ProcessNumpyBackend
    from repro.integrands.catalog import named_integrand

    seen = []
    evaluate = pagani.evaluate_regions

    def spy(*args, **kwargs):
        seen.append(kwargs["chunk_budget"])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(pagani, "evaluate_regions", spy)
    bk = ProcessNumpyBackend(num_workers=1) if backend == "process" else backend
    try:
        cfg = PaganiConfig(rel_tol=1e-3, backend=bk, chunk_budget=chunk_budget)
        PaganiIntegrator(cfg).integrate(named_integrand("3D-f4"), 3)
    finally:
        if backend == "process":
            bk.close()
    assert seen and set(seen) == {expected}
