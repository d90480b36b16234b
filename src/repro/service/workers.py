"""The worker pool that drains the job queue, with supervision.

Workers are plain threads: each loops on :meth:`JobQueue.next_job`, executes
the decoded request through the ordinary library entry points
(:func:`repro.service.wire.execute_request` → the ``repro.api`` run methods
+ the shared :class:`~repro.store.ArtifactStore`), and posts the rendered
payload back.  Threads are the right grain here because the work itself is
either store-served (I/O) or dominated by long-running simulation/model
checking.  Every job runs in-process: a process pool would split the batched
engine's sharing across one sweep's runs, and on the service's sweeps it was
several times slower than serial (docs/performance.md, "Where runs
execute").

Supervision (the crash-safety layer) wraps every execution:

* **Wall-clock timeout** — with ``job_timeout`` set, the execution's
  cancel scope carries a deadline.  The timeout is enforced at the next
  checkpoint: one round, one formula evaluation, one scan step, or one
  protocol call.  The timed-out job is then handed to
  :meth:`JobQueue.retry_or_fail` (timeouts are retryable).
* **Retry classification** — exceptions in :data:`RETRYABLE_EXCEPTIONS`
  (transient IO) go through the queue's bounded
  exponential-backoff retry; anything else fails the job immediately with
  the traceback.
* **Cooperative cancellation** — every execution runs on its worker thread
  in a cancel scope (:mod:`repro.core.cancel`) that raises
  :class:`JobCancelled` once the client cancels, the pool stops, or the
  deadline passes; the worker then picks the transition.  A cancelled job is
  marked so; :meth:`WorkerPool.stop` makes no transition, so the journal
  still says ``running`` and a successor re-queues the job.  No execution is
  ever abandoned, so every outcome a worker reports is current.

Worker exceptions never escape the loop: the job moves to ``failed`` (or back
to ``queued`` for a retry) carrying the traceback, the worker picks up the
next job, and the server keeps serving — pinned by ``tests/test_service.py``
and ``tests/test_service_robustness.py``.
"""

from __future__ import annotations

import threading
import time
import traceback
from contextlib import contextmanager
from typing import Callable, List, Optional

from ..core.cancel import cancellable
from ..obs import trace as _trace
from ..obs.bus import BUS
from .jobs import Job, JobQueue
from .wire import JobRequest, execute_request, render_result

#: Exception types worth a bounded retry: the failure is plausibly transient
#: (a flaky disk) rather than a property of the request itself.  Everything
#: else fails the job on the first attempt.
RETRYABLE_EXCEPTIONS = (OSError,)


class JobCancelled(Exception):
    """Raised inside a worker when a cancel request is observed mid-job."""


def probe_warm(request: JobRequest, store) -> Optional[dict]:
    """The rendered payload if the store already holds the request's artifact.

    Every request kind's job key *is* its artifact-store key (trace for
    ``run``, result set for ``sweep``, report for ``theorem``), so one store
    read answers "has this exact computation happened before, in any process,
    ever" — the cross-run half of request coalescing.  Corrupt entries read
    as misses (the store's contract), so a damaged cache degrades to a normal
    queued execution.
    """
    if store is None:
        return None
    artifact = store.get(request.key)
    if artifact is None:
        return None
    return render_result(request, artifact)


def _cancel_check(job: Job, stopping: threading.Event,
                  deadline: Optional[float] = None) -> Callable[[], None]:
    """The cancel-scope check of one execution of ``job``: it raises
    :class:`JobCancelled` once :attr:`Job.cancel_requested` (the client's
    cancel) or ``stopping`` (the pool's stop) is set, or ``time.monotonic()``
    passes ``deadline`` (the job timeout)."""
    def check() -> None:
        if (job.cancel_requested or stopping.is_set()
                or (deadline is not None and time.monotonic() > deadline)):
            raise JobCancelled(job.key)
    return check


#: Progress-event fields copied onto :attr:`Job.progress` (a stable subset of
#: what :class:`repro.obs.bus.ProgressReporter` emits).
_PROGRESS_FIELDS = ("phase", "done", "total", "unit", "elapsed", "eta")


@contextmanager
def _progress_capture(job: Job):
    """Mirror this thread's progress events onto ``job.progress``.

    The library's reporters emit on the thread doing the work — the same
    thread that runs :meth:`WorkerPool._call` — so filtering by thread ident
    keeps concurrent workers from writing into each other's jobs.  The dict is
    replaced wholesale (never mutated) so ``Job.describe`` can copy it without
    holding any extra lock.
    """
    ident = threading.get_ident()

    def on_progress(event: dict) -> None:
        if event.get("thread") != ident:
            return
        job.progress = {field: event[field] for field in _PROGRESS_FIELDS
                        if field in event}

    BUS.subscribe("progress", on_progress)
    try:
        yield
    finally:
        BUS.unsubscribe("progress", on_progress)


class WorkerPool:
    """``workers`` threads draining a :class:`JobQueue` through one store.

    Parameters
    ----------
    queue:
        The shared job queue.
    store:
        The :class:`~repro.store.ArtifactStore` every execution goes through
        (``None`` = no caching; coalescing still deduplicates in-flight work).
    workers:
        Thread count.  Identical submissions coalesce *before* reaching the
        pool, so extra workers only help genuinely distinct jobs.
    job_timeout:
        Per-job wall-clock budget in seconds; ``None`` = unlimited.  It is
        a deadline on the execution's cancel scope, enforced at the next
        checkpoint.  A timed-out job goes through the queue's retry
        machinery (timeouts are transient more often than not — a cold
        cache, a loaded box).
    """

    def __init__(self, queue: JobQueue, store=None, workers: int = 2,
                 job_timeout: Optional[float] = None) -> None:
        from ..core.errors import ServiceError
        if workers < 1:
            raise ServiceError(f"worker count must be >= 1, got {workers}")
        if job_timeout is not None and job_timeout <= 0:
            raise ServiceError(f"job_timeout must be positive, got {job_timeout}")
        self.queue = queue
        self.store = store
        self.workers = workers
        self.job_timeout = job_timeout
        self._threads: List[threading.Thread] = []
        #: Set by :meth:`stop`; every execution's cancel check reads it.
        self._stopping = threading.Event()

    def start(self) -> None:
        for index in range(self.workers):
            thread = threading.Thread(target=self._run, name=f"repro-worker-{index}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)

    def _run(self) -> None:
        while True:
            job = self.queue.next_job()
            if job is None:
                return
            self._execute(job)

    def _call(self, job: Job) -> tuple:
        """One execution attempt; returns an outcome tag the worker maps onto
        a queue transition.  Never raises."""
        deadline = None
        if self.job_timeout is not None:
            deadline = time.monotonic() + self.job_timeout
        attempt_span = _trace.NOOP
        if _trace.is_active():
            attempt_span = _trace.span("job.attempt", "service", {
                "job": job.key[:16], "kind": job.request.kind,
                "attempt": job.attempts})
        with attempt_span as span, _progress_capture(job), \
                cancellable(_cancel_check(job, self._stopping, deadline)):
            try:
                payload = execute_request(job.request, store=self.store)
            except JobCancelled:
                span.set("outcome", "cancelled")
                return ("cancelled", None, None)
            except Exception as exc:
                span.set("outcome", "error")
                return ("error", exc, traceback.format_exc())
            span.set("outcome", "done")
            return ("done", payload, None)

    def _execute(self, job: Job) -> None:
        tag, payload, trace = self._call(job)
        if tag == "done":
            self.queue.finish(job, payload)
        elif tag == "error":
            retryable = isinstance(payload, RETRYABLE_EXCEPTIONS)
            self.queue.retry_or_fail(job, trace, retryable=retryable)
        elif job.cancel_requested:
            self.queue.mark_cancelled(job)
        elif self._stopping.is_set():
            # Aborted by stop(): no transition, so the journal still says
            # ``running`` and recovery re-queues the job.
            return
        else:
            self.queue.retry_or_fail(
                job,
                f"job exceeded the {self.job_timeout:g}s wall-clock "
                f"timeout on attempt {job.attempts}",
                retryable=True, timed_out=True)

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Stop the queue, abort every running execution at its next
        checkpoint, and join every worker (bounded per-thread wait)."""
        self.queue.stop()
        self._stopping.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []


__all__ = ["JobCancelled", "RETRYABLE_EXCEPTIONS", "WorkerPool", "probe_warm"]
