"""Seeded inputs, closed-form references and result checks.

Every workload's inputs are a pure function of ``(workload, seed)``: the
same seed gives the same job list, byte for byte.  The seed moves what a
caller would vary (tolerances, transform parameters, priorities, order,
which jobs repeat) but keeps each workload's total work roughly fixed, so
the end-to-end figures of different seeds are comparable:

* ``deep_solo`` is a fixed set of hard problems whose cost jumps with the
  tolerance (one more PAGANI iteration can double it), so the seed only
  orders the set.
* ``fused_batch`` keeps its heavy members fixed; the seed draws the
  transform and sweep parameters of the light members and the order.
* ``http_closed`` draws sixteen tolerances per problem type, one from each
  sixteenth of the type's log-range (stratified), so the sum of job costs
  barely moves from seed to seed while each job's request is new.

The checks are semantic, never bit pins: a converged status, the estimate
within ``rel_tol`` of a closed-form value, and an error estimate within
``rel_tol`` of the estimate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.integrands.catalog import expand_sweep, named_integrand


@dataclass(frozen=True)
class Job:
    """One integration request and the closed-form value of its integral."""

    spec: str
    rel_tol: float
    reference: float
    priority: int = 1

    @property
    def key(self) -> Tuple[str, float, int]:
        """Identity of the request: equal keys are exact duplicates."""
        return (self.spec, self.rel_tol, self.priority)

    def to_json(self) -> dict:
        return {"integrand": self.spec, "rel_tol": self.rel_tol, "priority": self.priority}


# ---------------------------------------------------------------------------
# Closed forms for transform specs (the catalogue gives them no reference).
# f4(x) = exp(-625 Σ (x_i - 1/2)²) and f5(x) = exp(-10 Σ |x_i - 1/2|) are
# products of one-dimensional factors, and so are their transforms.
# ---------------------------------------------------------------------------
def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def gaussian_f5_factor(mean: float, sigma: float) -> float:
    """E[exp(-10 |Z - 1/2|)] for Z ~ N(mean, sigma²)."""
    k, mu = 10.0, mean - 0.5
    return math.exp(0.5 * (k * sigma) ** 2) * (
        math.exp(-k * mu) * _phi(mu / sigma - k * sigma)
        + math.exp(k * mu) * _phi(-mu / sigma - k * sigma)
    )


#: ∫_0^∞ exp(-625 (x - 1/2)²) dx, for any semi_infinite scale
HALF_LINE_F4_FACTOR = math.sqrt(math.pi) / 50.0 * (1.0 + math.erf(12.5))


def catalogue_reference(spec: str) -> float:
    """The catalogue's own closed-form value of a base spec."""
    ref = named_integrand(spec).reference
    if ref is None:
        raise ValueError(f"{spec!r} has no closed-form reference")
    return float(ref)


def _tol(x: float) -> float:
    """A drawn tolerance rounded to three significant digits."""
    return float(f"{x:.3g}")


# ---------------------------------------------------------------------------
# deep_solo: serial integrate() over hard problems, a few seconds each
# ---------------------------------------------------------------------------
DEEP_PROBLEMS: Tuple[Tuple[str, float], ...] = (
    ("5D-f5", 1.25e-5),
    ("5D-genz-c0", 1e-5),
    ("6D-f3", 1e-5),
    ("5D-f4", 1e-4),
    ("4D-f5", 1e-5),
)


def deep_solo_jobs(seed: int) -> List[Job]:
    rng = random.Random(f"deep_solo/{seed}")
    jobs = [Job(s, tol, catalogue_reference(s)) for s, tol in DEEP_PROBLEMS]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# fused_batch: one integrate_many call, members of mixed dimension/family
# ---------------------------------------------------------------------------
FUSED_TOL = 1e-5
FUSED_FIXED = ("5D-genz-c0", "5D-f4", "6D-f3", "4D-f5", "3D-f2", "4D-genz-c0")
#: The seeded sweep members are light, so the fixed ones set the wall time.
#: semi_infinite(3D-f4) is fixed too: it is the median member, and the
#: round it retires in moves with its scale (5.3-6.1 s into a 9 s call on
#: a 2-CPU host over scales 0.49-0.6), so a seeded scale would make
#: latency_p50_s follow the seed.  The parameters are those whose estimates
#: at FUSED_TOL land within a fifth of rel_tol of the closed form; the rest
#: of the 0.01-step grid do not (at scale=0.54 semi_infinite(3D-f4) misses
#: by 2.9 rel_tol while claiming convergence: PAGANI's error estimate is
#: optimistic on these transforms), and a run that fails its check
#: measures nothing.
FUSED_SIGMAS = (0.4, 0.41, 0.42, 0.43, 0.44, 0.47, 0.48, 0.49, 0.5, 0.51,
                0.52, 0.53, 0.54, 0.55, 0.56, 0.57, 0.58)
FUSED_SCALE = 0.5


def fused_batch_jobs(seed: int) -> List[Job]:
    rng = random.Random(f"fused_batch/{seed}")
    jobs = [Job(s, FUSED_TOL, catalogue_reference(s)) for s in FUSED_FIXED]
    sigmas = sorted(rng.sample(FUSED_SIGMAS, 2))
    sweep = "sweep:gaussian_measure(2D-f5, sigma=" + ";".join(map(str, sigmas)) + ")"
    for spec, sigma in zip(expand_sweep(sweep), sigmas):
        jobs.append(Job(spec, FUSED_TOL, gaussian_f5_factor(0.0, sigma) ** 2))
    jobs.append(
        Job(f"semi_infinite(3D-f4, scale={FUSED_SCALE})", FUSED_TOL, HALF_LINE_F4_FACTOR**3)
    )
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# http_closed: many small jobs through the HTTP service, some repeated
# ---------------------------------------------------------------------------
#: (catalogue spec, tolerance range); each job takes 0.03-1 s on the
#: numpy lane.  No transform specs: their error estimates are optimistic
#: at these tolerances (gaussian_measure(3D-f4) misses its closed form by
#: up to 6 rel_tol in about 1 of 100 draws), see FUSED_SIGMAS.
HTTP_TYPES: Tuple[Tuple[str, float, float], ...] = (
    ("4D-f4", 6e-6, 2e-4),
    ("4D-f4", 2e-6, 6e-6),
    ("4D-f5", 3e-5, 2e-3),
    ("3D-f2", 2e-6, 2e-4),
    ("4D-genz-c0", 2e-6, 2e-3),
    ("3D-f4", 2e-7, 2e-5),
    ("5D-genz-gaussian", 2e-7, 2e-5),
    ("3D-genz-c0", 2e-7, 2e-5),
)
HTTP_PER_TYPE = 16
#: repeats of earlier jobs per type: 48 of 176 jobs, under a third
HTTP_REPEATS_PER_TYPE = 6
HTTP_PRIORITIES = (1, 2, 3)


def http_closed_jobs(seed: int) -> List[Job]:
    rng = random.Random(f"http_closed/{seed}")
    by_type: List[List[Job]] = []
    for base, lo, hi in HTTP_TYPES:
        ref = catalogue_reference(base)
        span = math.log(hi / lo)
        # Each type gets the priorities as evenly as they divide, so the slow tail
        # (long, low-priority jobs) has the same shape for every seed.
        priorities = [HTTP_PRIORITIES[k % len(HTTP_PRIORITIES)] for k in range(HTTP_PER_TYPE)]
        rng.shuffle(priorities)
        typed = [
            Job(base, _tol(lo * math.exp(span * (k + rng.random()) / HTTP_PER_TYPE)), ref, p)
            for k, p in enumerate(priorities)
        ]
        rng.shuffle(typed)
        by_type.append(typed)
    # The list is HTTP_PER_TYPE blocks of one job per type, so the mix
    # arriving at the server is the same all through the run.  Blocks
    # after the first also repeat jobs of earlier blocks, every type
    # equally often.
    repeat_types = [t for t in range(len(HTTP_TYPES)) for _ in range(HTTP_REPEATS_PER_TYPE)]
    rng.shuffle(repeat_types)
    cut = [round(b * len(repeat_types) / (HTTP_PER_TYPE - 1)) for b in range(HTTP_PER_TYPE)]
    work: List[Job] = []
    for block in range(HTTP_PER_TYPE):
        batch = [typed[block] for typed in by_type]
        if block:
            slots = repeat_types[cut[block - 1] : cut[block]]
            batch += [by_type[t][rng.randrange(block)] for t in slots]
        rng.shuffle(batch)
        work += batch
    return work


WORKLOAD_JOBS = {
    "deep_solo": deep_solo_jobs,
    "fused_batch": fused_batch_jobs,
    "http_closed": http_closed_jobs,
}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------
def check_result(job: Job, estimate: float, errorest: float, converged: bool) -> List[str]:
    """Why the result fails the semantic check (empty when it passes)."""
    problems = []
    if not converged:
        problems.append("status is not converged")
    if not abs(estimate - job.reference) <= job.rel_tol * abs(job.reference):
        problems.append(
            f"estimate {estimate!r} is off the reference {job.reference!r} "
            f"by more than rel_tol={job.rel_tol}"
        )
    if not errorest <= job.rel_tol * abs(estimate):
        problems.append(f"errorest {errorest!r} exceeds rel_tol * |estimate|")
    return problems


def check_http_result(job: Job, payload: dict, first_hex: Optional[dict]) -> List[str]:
    """The semantic check plus the wire contract of ``GET .../result``.

    ``result_hex`` must decode to the decimal ``result``, and a repeated
    job's ``result_hex`` must equal the one its first instance received
    (``first_hex``; ``None`` for a first instance).
    """
    result, hexed = payload.get("result") or {}, payload.get("result_hex") or {}
    try:
        estimate, errorest = float(result["estimate"]), float(result["errorest"])
        converged = bool(result["converged"])
        decoded = (float.fromhex(hexed["estimate"]), float.fromhex(hexed["errorest"]))
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed result payload ({exc!r})"]
    problems = check_result(job, estimate, errorest, converged)
    if decoded != (estimate, errorest):
        problems.append("result_hex does not decode to the decimal result")
    if first_hex is not None and hexed != first_hex:
        problems.append("a duplicate's result_hex differs from its first instance's")
    return problems


# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------
def tail_percentile(values: Sequence[float], q: float, min_beyond: int = 10) -> Optional[float]:
    """Nearest-rank ``q`` quantile, or ``None`` when fewer than
    ``min_beyond`` samples lie beyond it (too few to place a tail)."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]
