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
  abandoned execution is told to stop at its next chunk boundary.  Its late
  outcome, if any, is discarded by the queue's attempt-token check.
* **Retry classification** — exceptions in :data:`RETRYABLE_EXCEPTIONS`
  (transient IO, a process pool that died) go through the queue's bounded
  exponential-backoff retry; anything else fails the job immediately with
  the traceback.
* **Cooperative cancellation** — the executor handed to the request is
  wrapped in a chunking guard that checks :attr:`Job.cancel_requested`
  between task chunks and construction chunks and raises
  :class:`JobCancelled`, which the worker confirms via
  :meth:`JobQueue.mark_cancelled`.

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
from typing import List, Optional

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


class _CancelGuard:
    """An executor wrapper that checks for cancellation between chunks.

    :meth:`checkpoint` raises :class:`JobCancelled` once
    :attr:`Job.cancel_requested` (the client's cooperative cancel) or the
    guard's own :attr:`abort` event (set when the supervising worker times the
    job out) is set.  ``run_tasks`` splits its work into chunks and checks
    before each one; :func:`~repro.systems.interpreted.build_system` calls
    :meth:`checkpoint` before each construction chunk.  Task chunks are sized
    to keep a parallel inner executor's pool busy between checks and to bound
    the number of checks on huge sweeps (at most ~8 per call), so the guard
    costs cancellation *latency*, never throughput or determinism — the
    concatenated chunk results are identical to one unchunked call.
    """

    def __init__(self, inner, job: Job) -> None:
        from ..api.executors import resolve_executor
        self.inner = resolve_executor(inner)
        self.job = job
        self.abort = threading.Event()

    def checkpoint(self) -> None:
        if self.job.cancel_requested or self.abort.is_set():
            raise JobCancelled(self.job.key)

    def _step(self, count: int) -> int:
        workers = getattr(self.inner, "_effective_workers", None)
        floor = 4 * workers() if callable(workers) else 1
        return max(floor, count // 8, 1)

    def run_tasks(self, tasks):
        tasks = list(tasks)
        step = self._step(len(tasks))
        results = []
        for start in range(0, len(tasks), step):
            self.checkpoint()
            results.extend(self.inner.run_tasks(tasks[start:start + step]))
        return results


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

    def _call(self, job: Job, guard: _CancelGuard) -> tuple:
        """One execution attempt; returns an outcome tag the supervisor maps
        onto a queue transition.  Never raises."""
        attempt_span = _trace.NOOP
        if _trace.is_active():
            attempt_span = _trace.span("job.attempt", "service", {
                "job": job.key[:16], "kind": job.request.kind,
                "attempt": job.attempts})
        with attempt_span as span, _progress_capture(job):
            try:
                payload = execute_request(job.request, executor=guard,
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
        guard = _CancelGuard(self.executor, job)
        if self.job_timeout is None:
            outcome = self._call(job, guard)
        else:
            box: List[tuple] = []
            runner = threading.Thread(
                target=lambda: box.append(self._call(job, guard)),
                name=f"repro-job-{job.key[:8]}", daemon=True)
            runner.start()
            runner.join(timeout=self.job_timeout)
            if runner.is_alive():
                # Tell the abandoned execution to stop at its next chunk
                # boundary; whatever it eventually reports carries a stale
                # attempt token and is ignored by the queue.
                guard.abort.set()
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
            self.queue.mark_cancelled(job, attempt=attempt)
        else:
            retryable = isinstance(payload, RETRYABLE_EXCEPTIONS)
            self.queue.retry_or_fail(job, trace, retryable=retryable,
                                     attempt=attempt)

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Stop the queue and join every worker (bounded per-thread wait)."""
        self.queue.stop()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []


__all__ = ["JobCancelled", "RETRYABLE_EXCEPTIONS", "WorkerPool", "probe_warm"]
