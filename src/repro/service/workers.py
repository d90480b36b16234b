"""The worker pool that drains the job queue, with supervision.

Workers are plain threads: each loops on :meth:`JobQueue.next_job`, executes
the decoded request through the ordinary library entry points
(:func:`repro.service.wire.execute_request` → ``repro.api`` executors +
the shared :class:`~repro.store.ArtifactStore`), and posts the rendered
payload back.  Threads are the right grain here because the work itself is
either store-served (I/O) or dominated by long-running simulation/model
checking — and a worker can additionally be handed a
:class:`~repro.api.executors.ParallelExecutor` to fan one sweep's runs out
over a process pool.

Supervision (the crash-safety layer) wraps every execution:

* **Wall-clock timeout** — with ``job_timeout`` set, the request runs on a
  daemon thread and the worker waits at most that long; on expiry the job is
  handed to :meth:`JobQueue.retry_or_fail` (timeouts are retryable) and the
  abandoned execution is told to stop at its next simulation round.  Its late
  outcome, if any, is discarded by the queue's attempt-token check.
* **Retry classification** — exceptions in :data:`RETRYABLE_EXCEPTIONS`
  (transient IO, a process pool that died) go through the queue's bounded
  exponential-backoff retry; anything else fails the job immediately with
  the traceback.
* **Cooperative cancellation** — every execution runs in a cancel scope
  (:mod:`repro.core.cancel`) that raises :class:`JobCancelled` once the
  client cancels, the execution times out, or the pool stops; the batched
  engine polls it every simulation round.  :meth:`WorkerPool.stop` leaves a
  job it aborts ``running`` in the journal, so a successor re-queues it.

Worker exceptions never escape the loop: the job moves to ``failed`` (or back
to ``queued`` for a retry) carrying the traceback, the worker picks up the
next job, and the server keeps serving — pinned by ``tests/test_service.py``
and ``tests/test_service_robustness.py``.
"""

from __future__ import annotations

import threading
import traceback
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Callable, List, Optional

from ..core.cancel import cancellable
from ..obs import trace as _trace
from ..obs.bus import BUS
from .jobs import Job, JobQueue
from .wire import JobRequest, execute_request, render_result

#: Exception types worth a bounded retry: the failure is plausibly transient
#: (a flaky disk, a worker process that died) rather than a property of the
#: request itself.  Everything else fails the job on the first attempt.
RETRYABLE_EXCEPTIONS = (OSError, BrokenProcessPool)


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


def _cancel_check(job: Job, *aborts: threading.Event) -> Callable[[], None]:
    """The cancel-scope check of one execution of ``job``: it raises
    :class:`JobCancelled` once :attr:`Job.cancel_requested` (the client's
    cancel) or any of ``aborts`` (the execution's timeout, the pool's stop)
    is set."""
    def check() -> None:
        if job.cancel_requested or any(abort.is_set() for abort in aborts):
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
    executor:
        Optional :class:`~repro.api.executors.Executor` handed to every
        execution (e.g. a process pool for big sweeps); ``None`` = serial.
    workers:
        Thread count.  Identical submissions coalesce *before* reaching the
        pool, so extra workers only help genuinely distinct jobs.
    job_timeout:
        Per-job wall-clock budget in seconds; ``None`` = unlimited.  A
        timed-out job goes through the queue's retry machinery (timeouts are
        transient more often than not — a cold cache, a loaded box).
    """

    def __init__(self, queue: JobQueue, store=None, executor=None,
                 workers: int = 2, job_timeout: Optional[float] = None) -> None:
        from ..core.errors import ServiceError
        if workers < 1:
            raise ServiceError(f"worker count must be >= 1, got {workers}")
        if job_timeout is not None and job_timeout <= 0:
            raise ServiceError(f"job_timeout must be positive, got {job_timeout}")
        self.queue = queue
        self.store = store
        self.executor = executor
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

    def _call(self, job: Job, abort: threading.Event) -> tuple:
        """One execution attempt; returns an outcome tag the supervisor maps
        onto a queue transition.  Never raises."""
        attempt_span = _trace.NOOP
        if _trace.is_active():
            attempt_span = _trace.span("job.attempt", "service", {
                "job": job.key[:16], "kind": job.request.kind,
                "attempt": job.attempts})
        with attempt_span as span, _progress_capture(job), \
                cancellable(_cancel_check(job, abort, self._stopping)):
            try:
                payload = execute_request(job.request, executor=self.executor,
                                          store=self.store)
            except JobCancelled:
                span.set("outcome", "cancelled")
                return ("cancelled", None, None)
            except Exception as exc:
                span.set("outcome", "error")
                return ("error", exc, traceback.format_exc())
            span.set("outcome", "done")
            return ("done", payload, None)

    def _execute(self, job: Job) -> None:
        attempt = job.attempts  # the token making late outcomes discardable
        abort = threading.Event()
        if self.job_timeout is None:
            outcome = self._call(job, abort)
        else:
            box: List[tuple] = []
            runner = threading.Thread(
                target=lambda: box.append(self._call(job, abort)),
                name=f"repro-job-{job.key[:8]}", daemon=True)
            runner.start()
            runner.join(timeout=self.job_timeout)
            if runner.is_alive():
                # Tell the abandoned execution to stop at its next simulation
                # round; whatever it eventually reports carries a stale
                # attempt token and is ignored by the queue.
                abort.set()
                self.queue.retry_or_fail(
                    job,
                    f"job exceeded the {self.job_timeout:g}s wall-clock "
                    f"timeout on attempt {attempt}",
                    retryable=True, attempt=attempt, timed_out=True)
                return
            outcome = box[0]
        tag, payload, trace = outcome
        if tag == "done":
            self.queue.finish(job, payload, attempt=attempt)
        elif tag == "cancelled":
            if self._stopping.is_set() and not job.cancel_requested:
                # Aborted by stop(): no transition, so the journal still says
                # ``running`` and recovery re-queues the job.
                return
            self.queue.mark_cancelled(job, attempt=attempt)
        else:
            retryable = isinstance(payload, RETRYABLE_EXCEPTIONS)
            self.queue.retry_or_fail(job, trace, retryable=retryable,
                                     attempt=attempt)

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Stop the queue, abort every running execution at its next round,
        and join every worker (bounded per-thread wait)."""
        self.queue.stop()
        self._stopping.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []


__all__ = ["JobCancelled", "RETRYABLE_EXCEPTIONS", "WorkerPool", "probe_warm"]
