"""The HTTP/JSON API over :class:`~repro.service.IntegrationService`.

Endpoints (see ``docs/service.md`` for the full table)::

    POST   /v1/jobs             submit a JobSpec JSON        → 202 / 400 / 429
    GET    /v1/jobs             list tracked jobs            → 200
    GET    /v1/jobs/<id>        job status                   → 200 / 404
    GET    /v1/jobs/<id>/result finished result              → 200 / 409 / 410 / 404 / 500
    DELETE /v1/jobs/<id>        cancel                       → 202 / 409 / 404
    GET    /metrics             service + HTTP counters      → 200
    GET    /healthz             liveness                     → 200

Design notes:

* **Admission control.**  ``POST /v1/jobs`` is rejected with ``429`` and
  a ``Retry-After`` header whenever the service's queue depth has
  reached ``max_queued`` — the bounded queue keeps a traffic burst from
  growing server memory without limit, and pushes backpressure to the
  clients, who are the only ones who can shed load meaningfully.
* **Bit-identical results over the wire.**  ``GET .../result`` carries
  every float twice: a human-readable decimal in ``result`` and the
  exact ``float.hex()`` encoding in ``result_hex`` (the durable-store
  payload of :mod:`repro.service.store`).  Clients that care about the
  reproduction's bit-for-bit replay contract compare ``result_hex``.
* **Threading.**  ``ThreadingHTTPServer`` gives one daemon thread per
  connection; all of them funnel into the one thread-safe
  :class:`~repro.service.IntegrationService`.  The server keeps its own
  ``job_id → handle`` map (guarded by a lock) so HTTP lookups stay O(1)
  and keep working even after the service's ``history_limit`` pruned a
  terminal handle from its own list.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import urlsplit

from repro.errors import ConfigurationError
from repro.service.jobs import JobHandle, JobSpec, JobStatus
from repro.service.service import IntegrationService, ServiceClosedError
from repro.service.store import result_to_payload

HTTP_API_VERSION = "v1"

#: default bound on the service queue before POSTs are 429-rejected
DEFAULT_MAX_QUEUED = 64

#: request bodies above this are rejected with 413 (a JobSpec is tiny)
MAX_BODY_BYTES = 1 << 20

#: Retry-After seconds suggested on 429 (queue full) and 409 (not ready)
RETRY_AFTER_SECONDS = 1

_log = logging.getLogger("repro.service.http")


def _job_status_payload(job_id: int, handle: JobHandle) -> dict:
    stats = handle.stats
    return {
        "job_id": job_id,
        "status": handle.status.value,
        "integrand": (
            handle.spec.integrand
            if isinstance(handle.spec.integrand, str)
            else repr(handle.spec.integrand)
        ),
        "label": handle.spec.label,
        "priority": stats.priority,
        "cache_hit": stats.cache_hit,
        "escalated": stats.escalated,
        "fingerprint": stats.fingerprint,
        "queue_seconds": stats.queue_seconds,
        "total_seconds": stats.total_seconds,
    }


def _result_payload(job_id: int, handle: JobHandle) -> dict:
    result = handle.result(timeout=0)
    hex_payload = result_to_payload(result)
    payload = {
        "job_id": job_id,
        "status": handle.status.value,
        "cache_hit": handle.stats.cache_hit,
        "result": {
            "estimate": result.estimate,
            "errorest": result.errorest,
            "status": result.status.value,
            "neval": result.neval,
            "nregions": result.nregions,
            "iterations": result.iterations,
            "method": result.method,
            "converged": result.converged,
        },
        "result_hex": hex_payload,
    }
    if result.escalation is not None:
        # honest provenance over the wire: every stage the ladder ran,
        # PAGANI first (the exact floats live in result_hex["escalation"])
        payload["escalation"] = [
            {
                "method": stage.method,
                "status": stage.status.value,
                "estimate": stage.estimate,
                "errorest": stage.errorest,
                "neval": stage.neval,
                "error": stage.error,
            }
            for stage in result.escalation
        ]
    return payload


class _Handler(BaseHTTPRequestHandler):
    """Routes one connection's requests to the owning server's app."""

    protocol_version = "HTTP/1.1"
    server_version = "pagani-repro"

    # quiet by default: a load generator would otherwise spam stderr
    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        pass

    @property
    def app(self) -> "HttpIntegrationServer":
        return self.server.app  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------
    def _send_json(
        self,
        code: int,
        payload: dict,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(
        self,
        code: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.app._count("errors")
        self._send_json(code, {"error": message}, headers)

    def _read_body(self) -> Optional[bytes]:
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        # A rejected body is left unread, so the connection cannot be
        # read past it: answer, then close it.
        close = {"Connection": "close"}
        if length < 0:
            self._error(400, f"malformed Content-Length {raw!r}", close)
            return None
        if length > MAX_BODY_BYTES:
            self._error(413, f"request body over {MAX_BODY_BYTES} bytes", close)
            return None
        return self.rfile.read(length)

    def _job_from_path(self, job_part: str) -> Optional[Tuple[int, JobHandle]]:
        try:
            job_id = int(job_part)
        except ValueError:
            self._error(404, f"malformed job id {job_part!r}")
            return None
        handle = self.app._lookup(job_id)
        if handle is None:
            self._error(404, f"no such job {job_id}")
            return None
        return job_id, handle

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self.app._count("requests")
        path = urlsplit(self.path).path.rstrip("/")
        if path == "/healthz":
            self._send_json(200, {"ok": True})
        elif path == "/metrics":
            self._send_json(200, self.app.metrics())
        elif path == f"/{HTTP_API_VERSION}/jobs":
            self._send_json(200, {"jobs": self.app._job_list()})
        else:
            parts = path.strip("/").split("/")
            if len(parts) == 3 and parts[:2] == [HTTP_API_VERSION, "jobs"]:
                found = self._job_from_path(parts[2])
                if found is not None:
                    job_id, handle = found
                    self._send_json(
                        200, _job_status_payload(job_id, handle)
                    )
            elif (
                len(parts) == 4
                and parts[:2] == [HTTP_API_VERSION, "jobs"]
                and parts[3] == "result"
            ):
                found = self._job_from_path(parts[2])
                if found is not None:
                    self._get_result(*found)
            else:
                self._error(404, f"no route for GET {path}")

    def _get_result(self, job_id: int, handle: JobHandle) -> None:
        status = handle.status
        if status in (JobStatus.QUEUED, JobStatus.RUNNING):
            self._error(
                409,
                f"job {job_id} is {status.value}; result not ready",
                {"Retry-After": str(RETRY_AFTER_SECONDS)},
            )
        elif status is JobStatus.CANCELLED:
            self._error(410, f"job {job_id} was cancelled")
        elif status is JobStatus.FAILED:
            exc = handle.exception(timeout=0)
            self._error(500, f"job {job_id} failed: {exc!r}")
        else:
            self._send_json(200, _result_payload(job_id, handle))

    def do_POST(self) -> None:  # noqa: N802
        self.app._count("requests")
        path = urlsplit(self.path).path.rstrip("/")
        if path != f"/{HTTP_API_VERSION}/jobs":
            self._error(404, f"no route for POST {path}")
            return
        body = self._read_body()
        if body is None:
            return
        try:
            data = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, ValueError):
            self._error(400, "request body is not valid JSON")
            return
        if not isinstance(data, dict):
            self._error(400, "job payload must be a JSON object")
            return
        self.app._submit(self, data)

    def do_DELETE(self) -> None:  # noqa: N802
        self.app._count("requests")
        path = urlsplit(self.path).path.rstrip("/")
        parts = path.strip("/").split("/")
        if len(parts) != 3 or parts[:2] != [HTTP_API_VERSION, "jobs"]:
            self._error(404, f"no route for DELETE {path}")
            return
        found = self._job_from_path(parts[2])
        if found is None:
            return
        job_id, handle = found
        if handle.cancel():
            self._send_json(
                202, {"job_id": job_id, "cancelled": True,
                      "status": handle.status.value}
            )
        else:
            self._error(
                409,
                f"job {job_id} already terminal "
                f"({handle.status.value}); cannot cancel",
            )


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # port 0 tests rebind fast; a crashed server must not wedge the port
    allow_reuse_address = True

    def __init__(self, addr, app: "HttpIntegrationServer"):
        self.app = app
        super().__init__(addr, _Handler)

    def handle_error(self, request, client_address) -> None:
        """A handler raised: log it and count it (the connection drops)."""
        self.app._count("errors")
        _log.exception("unhandled error serving %s", client_address)


class HttpIntegrationServer:
    """One HTTP listener bound to one :class:`IntegrationService`.

    Parameters
    ----------
    service:
        The service to expose.  ``owns_service=True`` (the default used
        by :func:`repro.serve_http`) makes :meth:`close` shut it down.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    max_queued:
        Admission bound: a ``POST /v1/jobs`` arriving while the service
        queue already holds this many jobs is rejected with ``429``.
    """

    def __init__(
        self,
        service: IntegrationService,
        host: str = "127.0.0.1",
        port: int = 8053,
        max_queued: int = DEFAULT_MAX_QUEUED,
        owns_service: bool = True,
    ):
        if max_queued < 1:
            raise ConfigurationError("max_queued must be >= 1")
        self.service = service
        self.max_queued = int(max_queued)
        self._owns_service = owns_service
        self._jobs: Dict[int, JobHandle] = {}
        self._lock = threading.Lock()
        self._counters = {"requests": 0, "rejected": 0, "errors": 0}
        self._closed = False
        self._httpd = _Server((host, port), self)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="pagani-http-server",
            daemon=True,
        )
        self._thread.start()

    # -- public --------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should target, e.g. ``http://127.0.0.1:8053``."""
        return f"http://{self.host}:{self.port}"

    def metrics(self) -> dict:
        """The ``/metrics`` payload (also callable in process)."""
        with self._lock:
            http_counters = dict(self._counters)
            http_counters["jobs_tracked"] = len(self._jobs)
        return {
            "service": self.service.stats(),
            "http": http_counters,
            "max_queued": self.max_queued,
        }

    def close(self) -> None:
        """Stop the listener (and the service, when owned).  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._thread.join()
        self._httpd.server_close()
        if self._owns_service:
            self.service.shutdown(wait=True)
            cache = self.service.cache
            close = getattr(cache, "close", None)
            if close is not None:
                close()

    def serve_forever(self) -> None:
        """Block the calling thread until :meth:`close` (or Ctrl-C)."""
        try:
            while self._thread.is_alive():
                self._thread.join(timeout=0.5)
        except KeyboardInterrupt:
            self.close()

    def __enter__(self) -> "HttpIntegrationServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- handler support -----------------------------------------------
    def _count(self, key: str) -> None:
        with self._lock:
            self._counters[key] += 1

    def _lookup(self, job_id: int) -> Optional[JobHandle]:
        with self._lock:
            return self._jobs.get(job_id)

    def _job_list(self) -> list:
        with self._lock:
            items = sorted(self._jobs.items())
        return [_job_status_payload(jid, h) for jid, h in items]

    def _submit(self, handler: _Handler, data: dict) -> None:
        if self.service.queue_depth() >= self.max_queued:
            self._count("rejected")
            handler._error(
                429,
                f"queue full ({self.max_queued} jobs waiting); retry later",
                {"Retry-After": str(RETRY_AFTER_SECONDS)},
            )
            return
        try:
            spec = JobSpec.from_dict(data)
        except ConfigurationError as exc:
            handler._error(400, str(exc))
            return
        try:
            handle = self.service.submit_spec(spec)
        except ServiceClosedError as exc:
            handler._error(503, str(exc))
            return
        with self._lock:
            self._jobs[handle.job_id] = handle
        handler._send_json(
            202,
            {
                "job_id": handle.job_id,
                "status": handle.status.value,
                "location": f"/{HTTP_API_VERSION}/jobs/{handle.job_id}",
            },
        )
