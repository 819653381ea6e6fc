"""The repo benchmark: one workload, one seed, a fixed amount of checked work.

    python3 perfbench/run.py --workload deep_solo --seed 1 --seconds 20 --trace 0

Workloads (inputs from ``jobs.py``, all seeded):

``deep_solo``
    ``repro.integrate(..., backend="numpy")`` called serially, twice over,
    on hard catalogue problems of a few seconds each: the evaluate sweep
    at the reference chunk grain, deep region stores, threshold filtering.
``fused_batch``
    One ``repro.integrate_many`` call on ``process:<nproc>`` over nine
    members of mixed dimension and family, two of them a ``sweep:``
    expansion, made three times: scheduler rounds, fused submission,
    shared-memory IPC.
``http_closed``
    ``serve_http(backend="numpy")`` in a child process; ``min(2, nproc)``
    client threads keep eight jobs outstanding between them against four
    service slots (a closed loop), poll the job list 20 ms after each sweep
    and fetch each finished job's result.  176 jobs, 48 of them exact
    repeats of earlier ones.

The work is the same for every ``--seconds``: the value is recorded with
the run, which on a 2-CPU host takes roughly that long.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs the workload once plain
and once with every layer wrapped (``layers.py``) and prints the per-layer
metrics, including the tracing overhead.  Every result is checked
(``jobs.check_result``); the last line of standard output is one JSON
object, and the exit code is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import http.client
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import bootstrap

bootstrap.import_program()

import jobs  # noqa: E402  (needs the program on the path)
import layers  # noqa: E402
from server import close_lane, warm_up  # noqa: E402

HERE = Path(__file__).resolve().parent
NPROC = len(os.sched_getaffinity(0))
SETUP_SAMPLES = 3
HTTP_CLIENTS = min(2, NPROC)
#: jobs outstanding across all clients; more than the server's four slots
HTTP_OUTSTANDING = 8
HTTP_POLL_S = 0.02
JOB_TIMEOUT_S = 60.0
#: deep_solo runs its list twice: single calls of seconds jitter by 5-10%
DEEP_PASSES = 2
#: fused_batch makes its call three times: one call varies by up to 15%
FUSED_PASSES = 3
CHILD_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """What one pass of a workload did and how long it took."""

    wall: float
    evaluations: int
    attempted: int
    #: times the fixed work ran; wall / passes is the time to solution
    passes: int = 1
    latencies: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    rss_mb: float = 0.0
    layer: Dict[str, float] = field(default_factory=dict)
    simulated: Dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Host facts
# ---------------------------------------------------------------------------
def children_of() -> Dict[int, List[int]]:
    """Parent pid -> pids of its children, for every process in ``/proc``."""
    children: Dict[int, List[int]] = defaultdict(list)
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # the process ended while we looked
        children[ppid].append(int(entry))
    return children


def tree_peak_rss_mb(root: int) -> float:
    """Sum of the peak RSS (VmHWM) of ``root`` and all its descendants."""
    children = children_of()
    total_kb, todo = 0, [root]
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
    "bli_thread_get_num_threads",
)


def blas_libraries() -> List[dict]:
    """Each BLAS library mapped into this process, with its thread count."""
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if path.startswith("/") and re.search(r"blas|mkl|blis", os.path.basename(path), re.I):
                paths.add(path)
    found = []
    for path in sorted(paths):
        threads = None
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            lib = None
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None) if lib is not None else None
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        found.append({"library": os.path.basename(path), "threads": threads})
    return found


def cpu_ticks() -> Tuple[int, int]:
    """(steal, total) CPU ticks of the host so far, from ``/proc/stat``."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def source_identity() -> Dict[str, str]:
    """The commit when the checkout is a git tree, and a digest of ``src/``."""
    digest = hashlib.sha256()
    for path in sorted(bootstrap.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(bootstrap.SRC)).encode())
        digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (bootstrap.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(bootstrap.ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def provenance(args, lane: str) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "lane": lane,
        "cpu_count": os.cpu_count(),
        "cpus_usable": NPROC,
        "blas_build": f"{blas.get('name')} {blas.get('version')}",
        "blas_loaded": blas_libraries(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        **source_identity(),
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux), so
    that a process a child leaves behind is still waited for here."""
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_children(timeout: float = CHILD_TIMEOUT_S) -> None:
    """Wait for every child still alive, adopted orphans included; kill
    those that have not ended within ``timeout`` and wait for them too."""
    deadline = time.monotonic() + timeout
    try:
        while time.monotonic() < deadline:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                time.sleep(0.01)
        for pid in children_of().get(os.getpid(), ()):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        while True:
            os.waitpid(-1, 0)
    except ChildProcessError:
        return  # no child left


def _child(*args: str) -> Tuple[subprocess.Popen, float, str]:
    """Start ``server.py`` with ``args``; return it, its spawn-to-ready
    seconds and the ready line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "server.py"), *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline().strip()
    ready = time.perf_counter() - t0
    if not line.startswith("ready"):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"server.py {' '.join(args)} did not become ready")
    return proc, ready, line


def _finish_child(proc: subprocess.Popen) -> str:
    """Tell a child to stop, wait for it, and return the rest of its output."""
    try:
        out, _ = proc.communicate("stop\n", timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"server.py exited with {proc.returncode}")
    return out


def probe_setup(lane: str) -> List[float]:
    """``setup_s`` samples: fresh processes that import, build the lane's
    backend and pool, and run one warm-up job."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc, ready, _ = _child("probe", lane)
        _finish_child(proc)
        samples.append(ready)
    return samples


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
def _check(job: jobs.Job, result, index: int) -> List[str]:
    return [
        f"job {index} ({job.spec} @ {job.rel_tol}): {p}"
        for p in jobs.check_result(job, result.estimate, result.errorest, result.converged)
    ]


def run_deep_solo(seed: int, tracer: Optional[layers.Tracer], setup: Optional[List[float]]) -> Outcome:
    from repro import integrate
    from repro.diagnostics.breakdown import kernel_breakdown
    from repro.gpu.device import VirtualDevice
    from repro.integrands.catalog import named_integrand

    if setup is not None:
        setup += probe_setup("numpy")
    warm_up("numpy")
    work = jobs.deep_solo_jobs(seed)
    integrands = [named_integrand(job.spec) for job in work]
    if tracer is not None:
        layers.install(tracer)
    out = Outcome(wall=0.0, evaluations=0, attempted=DEEP_PASSES * len(work), passes=DEEP_PASSES)
    simulated: Dict[str, float] = defaultdict(float)
    try:
        start = time.perf_counter()
        for _ in range(DEEP_PASSES):
            for index, (job, f) in enumerate(zip(work, integrands)):
                device = VirtualDevice()
                t0 = time.perf_counter()
                result = integrate(f, f.ndim, rel_tol=job.rel_tol, backend="numpy", device=device)
                elapsed = time.perf_counter() - t0
                failed = _check(job, result, index)
                out.failures += failed
                if not failed:
                    out.latencies.append(elapsed)
                out.evaluations += result.neval
                for share in kernel_breakdown(device):
                    simulated[share.category] += share.seconds
        out.wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    out.simulated = dict(simulated)
    out.rss_mb = tree_peak_rss_mb(os.getpid())
    return out


def run_fused_batch(seed: int, tracer: Optional[layers.Tracer], setup: Optional[List[float]]) -> Outcome:
    from repro import integrate_many
    from repro.backends import get_backend
    from repro.integrands.catalog import named_integrand

    lane = f"process:{NPROC}"
    if setup is not None:
        setup += probe_setup(lane)
    warm_up(lane)
    work = jobs.fused_batch_jobs(seed)
    integrands = [named_integrand(job.spec) for job in work]
    if tracer is not None:
        layers.install(tracer)
    out = Outcome(wall=0.0, evaluations=0, attempted=FUSED_PASSES * len(work), passes=FUSED_PASSES)
    try:
        for _ in range(FUSED_PASSES):
            t0 = time.perf_counter()
            results = integrate_many(integrands, rel_tol=jobs.FUSED_TOL, backend=get_backend(lane))
            out.wall += time.perf_counter() - t0
            for index, (job, result) in enumerate(zip(work, results)):
                failed = _check(job, result, index)
                out.failures += failed
                if not failed:
                    out.latencies.append(result.wall_seconds)
                out.evaluations += result.neval
    finally:
        if tracer is not None:
            tracer.uninstall()
    out.rss_mb = tree_peak_rss_mb(os.getpid())
    return out


class _Client(threading.Thread):
    """One closed-loop client: keeps ``window`` of its jobs outstanding."""

    def __init__(self, port: int, items: List[Tuple[int, jobs.Job]], window: int):
        super().__init__(daemon=True)
        self.port, self.items, self.window = port, items, window
        #: index -> (sent, received, status payload, result payload, polls)
        self.done: Dict[int, Tuple[float, float, dict, dict, int]] = {}
        self.failed: Dict[int, str] = {}
        self.post_s: List[float] = []
        self.result_get_s: List[float] = []
        self.rejected = 0
        self.error: Optional[BaseException] = None

    def _call(self, conn, method: str, path: str, body: Optional[dict] = None):
        t0 = time.perf_counter()
        conn.request(method, path, body=None if body is None else json.dumps(body),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read() or b"{}")
        return response.status, payload, time.perf_counter() - t0

    def run(self) -> None:
        try:
            self._loop()
        except Exception as exc:  # reported by the caller as failed jobs
            self.error = exc

    def _loop(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        pending = deque(self.items)
        outstanding: Dict[int, list] = {}
        try:
            while pending or outstanding:
                while pending and len(outstanding) < self.window:
                    index, job = pending.popleft()
                    sent = time.perf_counter()
                    status, body, dt = self._call(conn, "POST", "/v1/jobs", job.to_json())
                    self.post_s.append(dt)
                    if status == 202:
                        outstanding[body["job_id"]] = [index, sent, 0]
                    else:
                        self.rejected += status == 429
                        self.failed[index] = f"POST returned {status}: {body.get('error')}"
                time.sleep(HTTP_POLL_S)
                # One listing polls every outstanding job of this client.
                status, listing, _ = self._call(conn, "GET", "/v1/jobs")
                if status != 200:
                    raise RuntimeError(f"GET /v1/jobs returned {status}")
                states = {state["job_id"]: state for state in listing["jobs"]}
                for job_id in list(outstanding):
                    entry = outstanding[job_id]
                    index, sent = entry[0], entry[1]
                    state = states.get(job_id, {"status": "missing from the job list"})
                    entry[2] += 1
                    if state["status"] in ("queued", "running"):
                        if time.perf_counter() - sent > JOB_TIMEOUT_S:
                            del outstanding[job_id]
                            self.failed[index] = f"no result within {JOB_TIMEOUT_S} s"
                        continue
                    del outstanding[job_id]
                    if state["status"] != "done":
                        self.failed[index] = f"job ended {state['status']}"
                        continue
                    status, result, dt = self._call(conn, "GET", f"/v1/jobs/{job_id}/result")
                    received = time.perf_counter()
                    self.result_get_s.append(dt)
                    if status != 200:
                        self.failed[index] = f"result GET returned {status}: {result.get('error')}"
                        continue
                    self.done[index] = (sent, received, state, result, entry[2])
        finally:
            conn.close()
            for entry in outstanding.values():
                self.failed.setdefault(entry[0], "abandoned when the client stopped")


def run_http_closed(seed: int, tracer: Optional[layers.Tracer], setup: Optional[List[float]]) -> Outcome:
    """One pass over the job list against a fresh server child.

    ``setup`` receives spawn-to-ready samples: the extra servers are
    started and stopped before the measured one.
    """
    work = jobs.http_closed_jobs(seed)
    for _ in range(SETUP_SAMPLES - 1 if setup is not None else 0):
        proc, ready, _ = _child("serve")
        _finish_child(proc)
        setup.append(ready)
    proc, ready, line = _child("serve", *(["--trace"] if tracer is not None else []))
    if setup is not None:
        setup.append(ready)
    port = int(line.split()[1])
    try:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request("GET", "/metrics")
        rounds_before = json.loads(conn.getresponse().read())["service"]["rounds"]
        window = HTTP_OUTSTANDING // HTTP_CLIENTS
        clients = [
            _Client(port, [(i, work[i]) for i in range(k, len(work), HTTP_CLIENTS)], window)
            for k in range(HTTP_CLIENTS)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=len(work) * JOB_TIMEOUT_S)
            if client.is_alive():
                raise RuntimeError("an HTTP client did not finish")
        conn.request("GET", "/metrics")
        service = json.loads(conn.getresponse().read())["service"]
        conn.close()
        rss = tree_peak_rss_mb(os.getpid())
    finally:
        child_out = _finish_child(proc)

    out = Outcome(wall=0.0, evaluations=0, attempted=len(work), rss_mb=rss)
    done: Dict[int, tuple] = {}
    for client in clients:
        done.update(client.done)
        for index, why in client.failed.items():
            out.failures.append(f"job {index} ({work[index].spec}): {why}")
        if client.error is not None:
            out.failures.append(f"client error: {client.error!r}")
    first_hex: Dict[tuple, dict] = {}
    computed: Dict[tuple, int] = {}
    for index in sorted(done):
        job = work[index]
        sent, received, state, result, _ = done[index]
        problems = jobs.check_http_result(job, result, first_hex.get(job.key))
        first_hex.setdefault(job.key, result.get("result_hex"))
        if problems:
            out.failures += [f"job {index} ({job.spec} @ {job.rel_tol}): {p}" for p in problems]
            continue
        out.latencies.append(received - sent)
        computed[job.key] = result["result"]["neval"]
    out.evaluations = sum(computed.values())
    if done:
        out.wall = max(d[1] for d in done.values()) - min(d[0] for d in done.values())

    states = [d[2] for d in done.values()]
    out.layer = {
        "service.queue_wait_p50_s": statistics.median([s["queue_seconds"] for s in states]),
        "service.run_p50_s": statistics.median([s["total_seconds"] - s["queue_seconds"] for s in states]),
        "service.cache_hit_frac": sum(bool(s["cache_hit"]) for s in states) / len(work),
        "service.coalesced": service["coalesced"],
        "service.rounds_per_job": (service["rounds"] - rounds_before) / len(work),
        "http.post_p50_s": statistics.median([t for c in clients for t in c.post_s]),
        "http.result_get_p50_s": statistics.median([t for c in clients for t in c.result_get_s]),
        "http.polls_per_job": sum(d[4] for d in done.values()) / len(done),
        "http.rejected": sum(c.rejected for c in clients),
    } if done else {}
    if tracer is not None:
        out.layer.update(json.loads(child_out.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
END_TO_END_UNITS = {
    "setup_s": "s",
    "time_to_solution_s": "s",
    "meval_per_s": "Meval/s",
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "success_frac": "frac",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "integrands.eval_s": ("s", "deep_solo/time_to_solution_s"),
    "integrands.points": ("count", "deep_solo/time_to_solution_s"),
    "cubature.compute_chunk_self_s": ("s", "deep_solo/meval_per_s"),
    "cubature.chunks": ("count", "deep_solo/meval_per_s"),
    "cubature.points_per_chunk": ("count", "deep_solo vs fused_batch grain"),
    "backends.run_chunks_s": ("s", "fused_batch/time_to_solution_s"),
    "backends.run_chunks_calls": ("count", "fused_batch/time_to_solution_s"),
    "backends.meval_per_busy_s": ("Meval/s", "fused_batch/time_to_solution_s"),
    "core.iterations": ("count", "deep_solo/time_to_solution_s"),
    "core.regions_evaluated": ("count", "deep_solo/time_to_solution_s"),
    "core.complete_iteration_self_s": ("s", "deep_solo/time_to_solution_s"),
    "core.threshold_s": ("s", "deep_solo/time_to_solution_s"),
    "core.threshold_success_frac": ("frac", "deep_solo/peak_rss_mb"),
    "core.filter_split_s": ("s", "deep_solo/time_to_solution_s"),
    "core.finished_frac": ("frac", "deep_solo/peak_rss_mb"),
    "gpu.charge_kernel_s": ("s", "http_closed/latency_p50_s"),
    "gpu.kernel_launches": ("count", "http_closed/latency_p50_s"),
    "batch.rounds": ("count", "fused_batch/time_to_solution_s"),
    "batch.members_per_round": ("count", "fused_batch/time_to_solution_s"),
    "batch.round_self_s": ("s", "http_closed/jobs_per_s"),
    "service.queue_wait_p50_s": ("s", "http_closed/latency_p90_s"),
    "service.run_p50_s": ("s", "http_closed/latency_p90_s"),
    "service.cache_hit_frac": ("frac", "http_closed/jobs_per_s"),
    "service.coalesced": ("count", "http_closed/jobs_per_s"),
    "service.cache_lookup_s": ("s", "http_closed/jobs_per_s"),
    "service.rounds_per_job": ("count", "http_closed/jobs_per_s"),
    "http.post_p50_s": ("s", "http_closed/latency_p50_s"),
    "http.result_get_p50_s": ("s", "http_closed/latency_p50_s"),
    "http.polls_per_job": ("count", "http_closed/latency_p50_s"),
    "http.rejected": ("count", "http_closed/success_frac"),
    "trace.overhead_frac": ("frac", "every traced run"),
}
PER_LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}


def end_to_end(out: Outcome, setup: List[float], notes: List[str]) -> Dict[str, float]:
    lat = out.latencies
    p90 = jobs.tail_percentile(lat, 0.9)
    beyond = len(lat) - math.ceil(0.9 * len(lat))
    notes.append(f"latency: {len(lat)} samples, {beyond} beyond p90")
    if p90 is None and lat:
        notes.append(
            "latency_p90_s: fewer than 10 samples beyond p90, so it is no tail "
            "estimate; reported as the nearest-rank p90 because every "
            "workload prints every metric"
        )
        p90 = jobs.tail_percentile(lat, 0.9, min_beyond=0)
    verified = len(lat)
    return {
        "setup_s": statistics.median(setup),
        "time_to_solution_s": out.wall / out.passes,
        "meval_per_s": out.evaluations / out.wall / 1e6 if out.wall else 0.0,
        "jobs_per_s": verified / out.wall if out.wall else 0.0,
        "latency_p50_s": statistics.median(lat) if lat else 0.0,
        "latency_p90_s": p90 if p90 is not None else 0.0,
        "success_frac": verified / out.attempted,
        "peak_rss_mb": out.rss_mb,
    }


def per_layer(plain: Outcome, traced: Outcome, tracer: layers.Tracer) -> Dict[str, float]:
    figures = {name: 0.0 for name in PER_LAYER_UNITS}
    figures.update(layers.layer_metrics(tracer))
    figures.update(traced.layer)
    busy = figures["backends.run_chunks_s"]
    figures["backends.meval_per_busy_s"] = traced.evaluations / busy / 1e6 if busy else 0.0
    figures["trace.overhead_frac"] = traced.wall / plain.wall - 1.0 if plain.wall else 0.0
    return figures


def breakdown_table(traced: Outcome, tracer: layers.Tracer) -> List[str]:
    """The paper's §4.3.2 table: measured shares beside simulated ones."""
    measured = layers.measured_breakdown(tracer, traced.wall)
    sim_total = sum(traced.simulated.values()) or 1.0
    sim = {k: v / sim_total for k, v in traced.simulated.items()}
    sim_row = {  # measured row -> simulated category
        "evaluate: integrand": "evaluate",
        "post-processing": "post-processing",
        "threshold-classification": "threshold-classification",
        "filter+split": "filter+split",
        "other": "other",
    }
    lines = [f"{'category (§4.3.2)':36s} {'measured':>9s} {'simulated':>10s}"]
    for label, seconds in measured.items():
        key = sim_row.get(label)
        sim_text = f"{sim.get(key, 0.0):10.1%}" if key else f"{'(in row above)':>10s}"
        lines.append(f"{label:36s} {seconds / traced.wall:9.1%} {sim_text}")
    lines.append(
        f"(measured: share of the {traced.wall:.2f} s of measured work; simulated: share of "
        f"{sim_total:.4f} s on the virtual device, whose evaluate row covers both "
        "evaluate rows)"
    )
    return lines


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
#: workload -> (lane, runner(seed, tracer or None, setup samples or None))
WORKLOADS = {
    "deep_solo": ("numpy", run_deep_solo),
    "fused_batch": (f"process:{NPROC}", run_fused_batch),
    "http_closed": ("numpy", run_http_closed),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lane, runner = WORKLOADS[args.workload]
    adopt_orphans()
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("# provenance " + json.dumps(provenance(args, lane), sort_keys=True))
    notes: List[str] = []
    steal0, total0 = cpu_ticks()
    try:
        if args.trace == 0:
            setup: List[float] = []
            out = runner(args.seed, None, setup)
            notes.append("setup_s samples: " + ", ".join(f"{s:.3f}" for s in setup))
            metrics = end_to_end(out, setup, notes)
            units, attempted, failures = END_TO_END_UNITS, out.attempted, out.failures
            verified = len(out.latencies)
        else:
            plain = runner(args.seed, None, None)
            tracer = layers.Tracer()
            traced = runner(args.seed, tracer, None)
            metrics = per_layer(plain, traced, tracer)
            units = PER_LAYER_UNITS
            attempted = plain.attempted + traced.attempted
            verified = len(plain.latencies) + len(traced.latencies)
            failures = plain.failures + traced.failures
            if args.workload == "deep_solo":
                notes += breakdown_table(traced, tracer)
    finally:
        try:
            close_lane(lane)
        finally:
            reap_children()
    steal1, total1 = cpu_ticks()
    notes.append(
        f"cpu time stolen by the hypervisor during the run: "
        f"{(steal1 - steal0) / max(1, total1 - total0):.1%}"
    )
    for line in notes + failures:
        print("# " + line)
    for name, value in metrics.items():
        target = f"  -> {PER_LAYER[name][1]}" if name in PER_LAYER else ""
        print(f"# {name:34s} {value:14.6g} {units[name]}{target}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted - verified,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
