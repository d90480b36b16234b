"""``repro.service`` — the job-server subsystem (``repro-eba serve``).

The CLI runs one computation per process; this package turns the library into
a long-running service built for *heavy identical traffic*: an HTTP job API
whose unit of identity is the artifact store's **content key**, so concurrent
identical submissions coalesce into a single computation and anything ever
computed before is answered from the warm store without executing at all.

* :mod:`repro.service.wire` — the JSON wire format: run / sweep / theorem
  requests in, deterministic result payloads out, protocols by registry key
  (never pickle), and the request → content-key mapping shared with
  :mod:`repro.store`;
* :mod:`repro.service.jobs` — :class:`Job` and the thread-safe coalescing
  :class:`JobQueue` (states ``queued → running → done | failed``, bounded
  retry with backoff, backpressure, cooperative cancellation; hit/coalesce/
  failure/recovery counters);
* :mod:`repro.service.journal` — :class:`JobJournal`, the append-only JSONL
  persistence that makes a restarted server re-serve finished job ids and
  re-enqueue in-flight ones (``--journal``);
* :mod:`repro.service.workers` — the :class:`WorkerPool` draining the queue
  in-process through the ``repro.api`` run methods and the shared
  :class:`~repro.store.ArtifactStore`, supervising each job (wall-clock
  timeouts, retry classification, cancel checks); worker exceptions fail the
  one job, never the server;
* :mod:`repro.service.server` — :class:`JobServer`, the stdlib
  ``ThreadingHTTPServer`` front end (submit / status / result / cancel /
  healthz / stats; 503 + ``Retry-After`` under backpressure, SIGTERM ==
  SIGINT graceful shutdown);
* :mod:`repro.service.client` — :class:`ServiceClient`, the thin polling
  submitter (``submit_and_wait``, timeouts, bounded retry with backoff on
  transport errors *and* HTTP 5xx, honouring ``Retry-After``).

The CLI wires these up as ``repro-eba serve`` and ``repro-eba submit``; see
docs/architecture.md ("The service layer" and "Failure handling & recovery")
for the endpoint table, job lifecycle, and retry/degradation matrix.
"""

from .client import ServiceClient
from .jobs import Job, JobQueue
from .journal import JobJournal
from .server import DEFAULT_PORT, JobServer
from .wire import (
    JobRequest,
    PROTOCOL_FACTORIES,
    THEOREMS,
    TheoremCheck,
    decode_pattern,
    decode_request,
    encode_pattern,
    execute_request,
    render_result,
    request_key,
    run_request,
    sweep_request,
    theorem_request,
)
from .workers import JobCancelled, WorkerPool, probe_warm

__all__ = [
    "DEFAULT_PORT",
    "Job",
    "JobCancelled",
    "JobJournal",
    "JobQueue",
    "JobRequest",
    "JobServer",
    "PROTOCOL_FACTORIES",
    "ServiceClient",
    "THEOREMS",
    "TheoremCheck",
    "WorkerPool",
    "decode_pattern",
    "decode_request",
    "encode_pattern",
    "execute_request",
    "probe_warm",
    "render_result",
    "request_key",
    "run_request",
    "sweep_request",
    "theorem_request",
]
