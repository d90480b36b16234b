"""The HTTP job server (``repro-eba serve``).

Stdlib only: a :class:`http.server.ThreadingHTTPServer` front end (one thread
per connection, fine for a polling protocol) over the coalescing
:class:`~repro.service.jobs.JobQueue` and a
:class:`~repro.service.workers.WorkerPool`.  The API is five endpoints plus
health and stats:

=========================  ==================================================
endpoint                   meaning
=========================  ==================================================
``POST /jobs``             submit a JSON request (run / sweep / theorem);
                           returns the job id (= content key), its state, and
                           whether the submission coalesced or hit the store;
                           503 + ``Retry-After`` when the queue is full
``GET  /jobs/<id>``        poll status
``GET  /jobs/<id>/result`` fetch the rendered payload (409 while pending,
                           500 + traceback if the job failed, 410 cancelled)
``POST /jobs/<id>/cancel`` cancel a job — queued immediately, running
                           cooperatively (the worker stops at its next
                           simulation round)
``GET  /healthz``          liveness probe
``GET  /stats``            queue depth, in-flight, hit/coalesce/retry/
                           recovery counters, per-job wall times, journal
                           info, uptime/version, the artifact store's
                           ``cache stats --json`` payload, and a metrics
                           snapshot
``GET  /metrics``          the process-wide metrics registry — Prometheus
                           text exposition by default,
                           ``/metrics?format=json`` for the JSON snapshot
=========================  ==================================================

With ``journal=`` set, the server is **crash-safe**: every job transition is
appended to an on-disk JSONL journal, and a restarted server pointed at the
same path re-serves finished job ids (byte-identical payloads, zero
recomputation) and re-enqueues whatever was queued or running at crash time
(see :mod:`repro.service.journal`).

Use :class:`JobServer` programmatically (it is a context manager and binds
port 0 to a free port, which is what the tests do), or through the CLI::

    repro-eba serve --port 8642 --workers 2 --cache \
        --journal ~/.cache/repro-eba/journal.jsonl \
        --max-queue 256 --job-timeout 600 --task-retries 2
    repro-eba submit theorem --theorem 6.5 --n 3 --t 1 --wait
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import __version__
from ..core.errors import ServiceError, ServiceUnavailable
from ..obs.metrics import PROMETHEUS_CONTENT_TYPE, REGISTRY
from .jobs import CANCELLED, DONE, FAILED, JobQueue
from .journal import JobJournal
from .wire import decode_request
from .workers import WorkerPool, probe_warm

#: Default TCP port (no registered meaning; "EBA" on a phone keypad is 322,
#: and 8322 is free in the IANA registry's user range).
DEFAULT_PORT = 8322

#: Largest single read of a request body: a client's ``Content-Length``
#: never sizes a buffer by itself.
_BODY_CHUNK = 64 * 1024


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning :class:`JobServer`."""

    protocol_version = "HTTP/1.1"
    #: Seconds a connection may stall on one socket read or write, and the
    #: most a whole request body may take to arrive.  A client that declares
    #: a longer body than it sends, or trickles it, gets HTTP 408 after this
    #: long instead of holding a handler thread until it hangs up.
    timeout = 10.0
    server: "_ServiceHTTPServer"

    # -- plumbing ----------------------------------------------------------

    def _send_json(self, status: int, payload: dict,
                   headers: Optional[dict] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> object:
        header = self.headers.get("Content-Length")
        try:
            length = int(header or 0)
        except ValueError:
            length = -1
        if length < 0:
            # The body cannot be delimited, so the connection carries no
            # further request.
            self.close_connection = True
            raise ServiceError(f"invalid Content-Length header {header!r}")
        # Bounded reads against one deadline: a trickled body times out
        # like a stalled one.
        deadline = time.monotonic() + self.timeout
        chunks = []
        try:
            while length:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError("request body deadline passed")
                self.connection.settimeout(left)
                chunk = self.rfile.read1(min(length, _BODY_CHUNK))
                if not chunk:
                    break
                chunks.append(chunk)
                length -= len(chunk)
        finally:
            self.connection.settimeout(self.timeout)
        raw = b"".join(chunks)
        if not raw:
            raise ServiceError("empty request body; expected a JSON object")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from exc

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        if self.server.service.verbose:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        service = self.server.service
        url = urlsplit(self.path)
        path = url.path.rstrip("/")
        if path == "/healthz":
            self._send_json(200, {"ok": True})
            return
        if path == "/stats":
            self._send_json(200, service.describe_stats())
            return
        if path == "/metrics":
            query = parse_qs(url.query)
            if query.get("format", [""])[-1] == "json":
                self._send_json(200, REGISTRY.snapshot())
                return
            body = REGISTRY.render_prometheus().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        if path.startswith("/jobs/"):
            parts = path[len("/jobs/"):].split("/")
            try:
                if len(parts) == 1:
                    self._send_json(200, service.queue.get(parts[0]).describe())
                    return
                if len(parts) == 2 and parts[1] == "result":
                    self._send_result(parts[0])
                    return
            except ServiceError as exc:
                self._send_json(404, {"error": str(exc)})
                return
        self._send_json(404, {"error": f"no such endpoint: GET {self.path}"})

    def _send_result(self, key: str) -> None:
        job = self.server.service.queue.get(key)  # raises ServiceError -> 404
        if job.state == DONE:
            self._send_json(200, {"job": job.key, "state": job.state,
                                  "result": job.result})
        elif job.state == FAILED:
            self._send_json(500, {"job": job.key, "state": job.state,
                                  "error": job.error})
        elif job.state == CANCELLED:
            self._send_json(410, {"job": job.key, "state": job.state})
        else:
            self._send_json(409, {"job": job.key, "state": job.state})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        service = self.server.service
        path = self.path.rstrip("/")
        if path == "/jobs":
            try:
                body = self._read_body()
                receipt = service.submit(body)
            except ServiceUnavailable as exc:
                self._send_json(503, {"error": str(exc)},
                                headers={"Retry-After": f"{exc.retry_after:g}"})
                return
            except ServiceError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            except TimeoutError:
                # The rest of the body may still arrive and would be read
                # as the next request.
                self.close_connection = True
                self._send_json(408, {"error": f"request body not received "
                                               f"within {self.timeout:g} s"})
                return
            status = 200 if receipt["state"] == DONE else 202
            self._send_json(status, receipt)
            return
        if path.startswith("/jobs/") and path.endswith("/cancel"):
            key = path[len("/jobs/"):-len("/cancel")]
            try:
                job = service.queue.cancel(key)
            except ServiceError as exc:
                self._send_json(404, {"error": str(exc)})
                return
            self._send_json(200, job.describe())
            return
        self._send_json(404, {"error": f"no such endpoint: POST {self.path}"})


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    #: Back-reference set by JobServer before the first request.
    service: "JobServer"


class JobServer:
    """The assembled service: HTTP front end + job queue + worker pool.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`address`).
    store:
        The shared :class:`~repro.store.ArtifactStore` — the coalescing and
        warm-hit substrate.  ``None`` keeps in-flight coalescing but serves
        nothing across restarts.
    workers:
        Worker-thread count draining the queue.
    journal:
        A :class:`~repro.service.journal.JobJournal` or a path to one;
        enables crash-safe recovery (``None`` = in-memory job table only).
    max_queue:
        Backpressure bound on pending jobs (HTTP 503 + ``Retry-After`` when
        full); ``None`` = unbounded.
    job_timeout:
        Per-job wall-clock budget in seconds (``None`` = unlimited).
    task_retries:
        Retry budget for retryable job failures (timeouts, transient IO);
        0 = fail on the first error.
    retry_backoff:
        First retry delay in seconds; doubles per attempt.
    """

    #: Seconds between the HTTP loop's shutdown checks.  :meth:`stop` waits
    #: up to this long for the loop before it stops the workers, so it bounds
    #: ``stop()`` together with one simulation round of a running job.
    POLL_INTERVAL = 0.05

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 store=None, workers: int = 2,
                 verbose: bool = False,
                 journal: "JobJournal | str | None" = None,
                 max_queue: Optional[int] = None,
                 job_timeout: Optional[float] = None,
                 task_retries: int = 0,
                 retry_backoff: float = 0.5) -> None:
        self.store = store
        self.verbose = verbose
        self.started_at = time.time()
        self._started_mono = time.monotonic()
        self.queue = JobQueue(max_queue=max_queue, max_retries=task_retries,
                              retry_backoff=retry_backoff)
        self.journal: Optional[JobJournal] = None
        if journal is not None:
            self.journal = (journal if isinstance(journal, JobJournal)
                            else JobJournal(journal))
            # Replay *before* attaching, so recovery does not re-journal
            # itself; compaction then rewrites the file from the rebuilt job
            # table, bounding its size to state rather than history.
            self.journal.recover_into(self.queue)
            self.journal.compact(self.queue)
            self.queue.journal = self.journal
        self.pool = WorkerPool(self.queue, store=store, workers=workers,
                               job_timeout=job_timeout)
        self._httpd = _ServiceHTTPServer((host, port), _ServiceHandler)
        self._httpd.service = self
        self._serve_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ requests

    def submit(self, body: object) -> dict:
        """Decode, coalesce/warm-check, and (if needed) enqueue a submission.

        The returned receipt is what ``POST /jobs`` sends back::

            {"job": <content key>, "state": ..., "coalesced": bool, "hit": bool}

        Raises :class:`~repro.core.errors.ServiceUnavailable` (mapped to 503)
        when the queue is at its backpressure bound.
        """
        request = decode_request(body)
        warm = probe_warm(request, self.store)
        job, coalesced = self.queue.submit(request, warm_result=warm)
        return {"job": job.key, "state": job.state, "coalesced": coalesced,
                "hit": job.state == DONE and not coalesced}

    def describe_stats(self) -> dict:
        """The ``GET /stats`` payload: queue counters plus store stats."""
        payload = {"service": self.queue.stats(), "workers": self.pool.workers,
                   "version": __version__,
                   "started_at": self.started_at,
                   "uptime_seconds": round(
                       time.monotonic() - self._started_mono, 3),
                   "metrics": REGISTRY.snapshot()}
        if self.journal is not None:
            payload["journal"] = {"path": str(self.journal.path),
                                  "torn_lines": self.journal.torn_lines,
                                  "write_errors": self.journal.write_errors}
        else:
            payload["journal"] = None
        if self.store is not None:
            payload["store"] = self.store.stats().as_dict()
        else:
            payload["store"] = None
        return payload

    # ------------------------------------------------------------------ lifecycle

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolves ``port=0`` to the real port."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "JobServer":
        """Start the worker pool and the HTTP listener (both in background threads)."""
        self.pool.start()
        self._serve_thread = threading.Thread(target=self._httpd.serve_forever,
                                              args=(self.POLL_INTERVAL,),
                                              name="repro-serve", daemon=True)
        self._serve_thread.start()
        return self

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain workers, release the socket."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
            self._serve_thread = None
        self.pool.stop()
        if self.journal is not None:
            self.journal.close()

    def serve_until_interrupt(self) -> None:
        """Foreground serving loop for the CLI.

        Both SIGINT (Ctrl-C) and SIGTERM (``docker stop``, systemd, k8s) shut
        down gracefully with exit code 0 — containerized deployments send
        SIGTERM, and treating it differently from SIGINT would turn every
        clean redeploy into a hard kill.
        """
        self.pool.start()
        previous_term = None
        try:
            previous_term = signal.signal(signal.SIGTERM, _raise_interrupt)
        except ValueError:  # pragma: no cover - not the main thread
            pass
        try:
            self._httpd.serve_forever(self.POLL_INTERVAL)
        except KeyboardInterrupt:
            pass
        finally:
            if previous_term is not None:
                signal.signal(signal.SIGTERM, previous_term)
            self._httpd.server_close()
            self.pool.stop()
            if self.journal is not None:
                self.journal.close()

    def __enter__(self) -> "JobServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _raise_interrupt(signum, frame):  # pragma: no cover - exercised via subprocess
    raise KeyboardInterrupt


__all__ = ["DEFAULT_PORT", "JobServer"]
