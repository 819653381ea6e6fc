"""Fast checks of the benchmark's own inputs, statistics and checks.

Run with ``python3 -m pytest perfbench/tests -q`` from the checkout root.
"""

import math

import pytest

import jobs


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOAD_JOBS))
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    make = jobs.WORKLOAD_JOBS[workload]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_http_job_list_shape():
    work = jobs.http_closed_jobs(3)
    unique = {job.key for job in work}
    repeats = len(work) - len(unique)
    assert repeats == jobs.HTTP_REPEATS_PER_TYPE * len(jobs.HTTP_TYPES)
    assert 3 * repeats <= len(work)
    assert {job.priority for job in work} == set(jobs.HTTP_PRIORITIES)
    assert len({job.rel_tol for job in work}) > 60  # tolerances drawn, not fixed


def test_fused_batch_mixes_dimensions_and_a_sweep():
    work = jobs.fused_batch_jobs(5)
    assert sum(job.spec.startswith("gaussian_measure(") for job in work) == 2
    assert len({job.spec.split("-")[0][-2:].lower() for job in work}) >= 3


def test_p90_needs_ten_samples_beyond_it():
    assert jobs.tail_percentile(range(99), 0.9) is None  # 9 beyond rank 90
    assert jobs.tail_percentile(range(1, 101), 0.9) == 90  # 10 beyond
    assert jobs.tail_percentile([], 0.9) is None


def _job(rel_tol=1e-6):
    return jobs.Job("3D-f4", rel_tol, jobs.catalogue_reference("3D-f4"))


def test_check_accepts_a_good_result_and_rejects_a_perturbed_one():
    job = _job()
    good = job.reference * (1 + 0.5 * job.rel_tol)
    assert jobs.check_result(job, good, 0.5 * job.rel_tol * good, True) == []
    bad = job.reference * (1 + 2 * job.rel_tol)
    assert jobs.check_result(job, bad, 0.5 * job.rel_tol * bad, True)
    assert jobs.check_result(job, good, 2 * job.rel_tol * good, True)  # errorest too big
    assert jobs.check_result(job, good, 0.5 * job.rel_tol * good, False)


def _payload(estimate, errorest):
    return {
        "result": {"estimate": estimate, "errorest": errorest, "converged": True},
        "result_hex": {"estimate": estimate.hex(), "errorest": errorest.hex()},
    }


def test_http_check_rejects_a_mismatched_duplicate_and_bad_hex():
    job = _job()
    first = _payload(job.reference, 1e-7 * job.reference)
    assert jobs.check_http_result(job, first, None) == []
    assert jobs.check_http_result(job, first, first["result_hex"]) == []
    other = _payload(math.nextafter(job.reference, 1.0), 1e-7 * job.reference)
    assert jobs.check_http_result(job, other, None) == []
    assert jobs.check_http_result(job, other, first["result_hex"])
    wrong_hex = dict(first, result_hex=other["result_hex"])
    assert jobs.check_http_result(job, wrong_hex, None)
    assert jobs.check_http_result(job, {"result": {}}, None)


@pytest.mark.parametrize("mean,sigma", [(0.0, 0.5), (0.3, 0.2), (0.7, 0.45)])
def test_closed_forms_match_quadrature(mean, sigma):
    np = pytest.importorskip("numpy")
    z = np.linspace(mean - 12 * sigma, mean + 12 * sigma, 400_001)
    density = np.exp(-0.5 * ((z - mean) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    f5 = np.trapezoid(np.exp(-10 * np.abs(z - 0.5)) * density, z)
    assert jobs.gaussian_f5_factor(mean, sigma) == pytest.approx(f5, rel=1e-7)
    x = np.linspace(0.0, 2.0, 400_001)
    half_line = np.trapezoid(np.exp(-625 * (x - 0.5) ** 2), x)
    assert jobs.HALF_LINE_F4_FACTOR == pytest.approx(half_line, rel=1e-9)
