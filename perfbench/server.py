"""Child processes of the benchmark: set-up probes and the HTTP server.

``python3 perfbench/server.py probe <lane>``
    Imports the program, builds the lane's backend (and its pool), runs one
    warm-up job, prints ``ready`` and exits.  The parent times it from
    spawn to ``ready``: that is one ``setup_s`` sample.

``python3 perfbench/server.py serve [--trace]``
    Starts ``serve_http(backend="numpy")`` on a free port, runs one
    warm-up job through it, prints ``ready <port>`` and serves until its
    standard input closes or reads ``stop``.  With ``--trace`` it wraps the
    layers first and, on stop, prints their figures as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.request

import bootstrap

#: the warm-up job; no workload's job list contains it, so it never
#: pre-fills the result cache for the measured jobs
WARMUP_SPEC = {"integrand": "2D-f4", "rel_tol": 1e-3}
#: a fused warm-up big enough to split into several chunks at the
#: process lane's grain, so the pool workers start during set-up
WARMUP_FUSED = ("4D-f4", "3D-f2")
WARMUP_FUSED_TOL = 1e-5

HTTP_MAX_CONCURRENT = 4
TERMINAL = ("done", "failed", "cancelled")


def warm_up(lane: str) -> None:
    """One small job on ``lane``: imports, rule caches and the pool start."""
    import repro
    from repro.backends import get_backend
    from repro.integrands.catalog import named_integrand

    backend = get_backend(lane)
    members = [named_integrand(s) for s in WARMUP_FUSED]
    results = repro.integrate_many(members, rel_tol=WARMUP_FUSED_TOL, backend=backend)
    if not all(r.converged for r in results):
        raise RuntimeError(f"warm-up did not converge on {lane}")


def close_lane(lane: str) -> None:
    """Stop the lane's pool workers, then this process's multiprocessing
    resource tracker, and wait for each to end.

    The tracker is a process of its own, started with the first shared-memory
    segment; left alone it outlives this process by a moment.
    """
    from multiprocessing import resource_tracker

    from repro.backends import get_backend

    close = getattr(get_backend(lane), "close", None)
    if close is not None:
        close()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def http_json(url: str, payload: dict | None = None) -> dict:
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def serve(trace: bool) -> None:
    tracer = None
    if trace:
        import layers

        tracer = layers.install(layers.Tracer())
    import repro

    server = repro.serve_http(
        port=0, backend="numpy", max_concurrent=HTTP_MAX_CONCURRENT
    )
    try:
        job = http_json(server.url + "/v1/jobs", WARMUP_SPEC)["job_id"]
        while http_json(f"{server.url}/v1/jobs/{job}")["status"] not in TERMINAL:
            time.sleep(0.005)
        if not http_json(f"{server.url}/v1/jobs/{job}/result")["result"]["converged"]:
            raise RuntimeError("warm-up job did not converge")
        print(f"ready {server.port}", flush=True)
        for line in sys.stdin:
            if line.strip() == "stop":
                break
    finally:
        server.close()
    if tracer is not None:
        tracer.uninstall()
        print(json.dumps(layers.layer_metrics(tracer)), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    probe = sub.add_parser("probe")
    probe.add_argument("lane")
    srv = sub.add_parser("serve")
    srv.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    bootstrap.import_program()
    if args.mode == "probe":
        try:
            warm_up(args.lane)
            print("ready", flush=True)
        finally:
            close_lane(args.lane)
    else:
        try:
            serve(args.trace)
        finally:
            close_lane("numpy")
    return 0


if __name__ == "__main__":
    sys.exit(main())
