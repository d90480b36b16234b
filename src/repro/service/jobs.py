"""Jobs and the thread-safe, coalescing job queue.

A :class:`Job` is one computation the service has been asked for, identified
by its **content key** (see :func:`repro.service.wire.request_key`).  The
:class:`JobQueue` is the rendezvous that makes the service scale under
identical load:

* **In-flight coalescing** — submitting a request whose key is already queued
  or running returns the *existing* job; the second client polls the same job
  id and fetches the same payload.  N concurrent identical submissions cost
  one computation.
* **Warm-store hits** — for ``run`` and ``theorem`` requests the job key *is*
  the artifact-store key of the finished artifact, and for every kind the
  executing worker goes through the store anyway; a submission whose artifact
  is already cached completes at submit time without ever entering the queue.
* **Failure isolation** — a worker exception marks the job ``failed`` (with
  the traceback) and the server keeps serving; clients see the error when
  they poll.  Re-submitting a failed key starts a fresh attempt.

Since the crash-safety work the queue also carries the *supervision* state:

* **Bounded retry with exponential backoff** — a worker reporting a
  *retryable* failure (transient IO, a broken process pool, a wall-clock
  timeout) re-enqueues the job with delay ``retry_backoff * 2**(attempt-1)``
  until ``max_retries`` attempts are exhausted, then the job fails for good.
* **Backpressure** — with ``max_queue`` set, a submission that would push the
  pending depth past the bound raises
  :class:`~repro.core.errors.ServiceUnavailable` (the server maps it to HTTP
  503 + ``Retry-After``) instead of letting the queue grow without bound.
* **Cooperative cancellation of running jobs** — cancelling a running job
  sets :attr:`Job.cancel_requested`; the executing worker checks the flag
  between sweep chunks and confirms the cancellation (see
  :mod:`repro.service.workers`).
* **Journaling** — with a :class:`~repro.service.journal.JobJournal`
  attached, every transition is appended (and flushed) under the queue lock,
  so a killed server recovers its job table on restart.

States move ``queued → running → done | failed`` (with ``running → queued``
on a retryable failure); ``cancelled`` is reachable from ``queued``
immediately and from ``running`` cooperatively.  All transitions happen under
one lock, and ``next_job`` blocks on the matching condition, so the queue is
safe for any number of HTTP handler threads and worker threads.
"""

from __future__ import annotations

import heapq
import threading
import time
import weakref
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..core.errors import ServiceError, ServiceUnavailable
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .wire import JobRequest

# Process-wide mirrors of the queue's per-instance counters (the pinned
# ``stats()`` schema keeps its per-queue meaning; the registry aggregates
# across every queue the process ever creates — see repro.obs.metrics).
_M_SUBMITTED = _metrics.counter("repro_jobs_submitted_total",
                                "Job submissions, coalesced or not")
_M_COALESCED = _metrics.counter("repro_jobs_coalesced_total",
                                "Submissions absorbed by a live job")
_M_STORE_HITS = _metrics.counter("repro_jobs_store_hits_total",
                                 "Submissions answered from the warm artifact store")
_M_EXECUTED = _metrics.counter("repro_jobs_executed_total",
                               "Jobs a worker computed to completion")
_M_FAILED = _metrics.counter("repro_jobs_failed_total", "Jobs that failed for good")
_M_CANCELLED = _metrics.counter("repro_jobs_cancelled_total", "Jobs cancelled")
_M_RETRIES = _metrics.counter("repro_jobs_retries_total",
                              "Retryable failures that re-enqueued a job")
_M_TIMEOUTS = _metrics.counter("repro_jobs_timeouts_total",
                               "Per-job wall-clock timeouts")
_M_REJECTED = _metrics.counter("repro_jobs_rejected_total",
                               "Submissions refused under backpressure")
_M_WALL = _metrics.histogram("repro_job_wall_seconds",
                             "Execution wall time of completed jobs")
_G_QUEUE_DEPTH = _metrics.gauge("repro_queue_depth",
                                "Jobs currently queued (latest live queue)")
_G_IN_FLIGHT = _metrics.gauge("repro_jobs_in_flight",
                              "Jobs currently running (latest live queue)")

#: The job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States in which a job will not make further progress.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


class Job:
    """One submitted computation and its lifecycle bookkeeping.

    Mutable by design — the queue mutates state under its lock; everything a
    handler reads (:meth:`describe`) is copied out under the same lock.
    """

    def __init__(self, request: JobRequest) -> None:
        self.request = request
        self.state = QUEUED
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.result: Optional[dict] = None
        self.error: Optional[str] = None
        #: How many submissions this job absorbed (1 = never coalesced).
        self.submissions = 1
        #: How many times a worker has picked this job up.
        self.attempts = 0
        #: Cooperative-cancel flag: set by :meth:`JobQueue.cancel` on a
        #: running job; the worker's chunk-boundary checks confirm it.
        self.cancel_requested = False
        #: Whether this job was rebuilt from the journal at startup.
        self.recovered = False
        #: Live progress view (phase/done/total/eta), written by the executing
        #: worker's progress capture and surfaced by ``GET /jobs/<id>``.
        #: A benign single-writer race: the worker replaces the whole dict.
        self.progress: Optional[dict] = None
        #: Monotonic stamp of the last enqueue (submit or retry), closing the
        #: ``job.queue_wait`` trace span at worker pickup.
        self.queued_mono: Optional[float] = None

    @property
    def key(self) -> str:
        return self.request.key

    @property
    def wall_time(self) -> Optional[float]:
        """Execution wall time in seconds (``None`` until the job finishes)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def mark_recovered(self, state: str, result: Optional[dict] = None,
                       error: Optional[str] = None) -> None:
        """Put a journal-replayed job directly into its terminal state."""
        assert state in TERMINAL_STATES
        self.state = state
        self.result = result
        self.error = error
        self.finished_at = self.submitted_at
        self.recovered = True

    def describe(self) -> dict:
        """The JSON-safe status view (``GET /jobs/<id>``)."""
        info = {
            "job": self.key,
            "kind": self.request.kind,
            "state": self.state,
            "submissions": self.submissions,
        }
        if self.wall_time is not None:
            info["wall_time"] = round(self.wall_time, 6)
        if self.error is not None:
            info["error"] = self.error
        if self.attempts > 1:
            info["attempts"] = self.attempts
        if self.cancel_requested and self.state not in TERMINAL_STATES:
            info["cancel_requested"] = True
        if self.recovered:
            info["recovered"] = True
        if self.progress is not None and self.state == RUNNING:
            info["progress"] = dict(self.progress)
        return info


class JobQueue:
    """Thread-safe FIFO job queue with content-key coalescing and counters.

    The queue owns every job the server has seen (``_jobs`` maps key → job,
    including finished ones, so late polls still resolve); ``_pending`` holds
    the keys awaiting a worker and ``_delayed`` the backoff-scheduled retries.
    One lock guards everything — operations are dictionary-sized, so a single
    lock is simpler and plenty fast next to simulations that run for
    milliseconds to minutes.

    Parameters
    ----------
    max_queue:
        Backpressure bound on the pending depth (queued + delayed retries);
        ``None`` = unbounded.  Exceeding it raises
        :class:`~repro.core.errors.ServiceUnavailable` at submit time.
    max_retries:
        How many times a retryable failure re-enqueues a job before it fails
        for good (0 = fail on the first error, the pre-journal behaviour).
    retry_backoff:
        First retry delay in seconds; doubles per attempt.
    retry_after:
        The ``Retry-After`` hint (seconds) carried by backpressure rejections.
    """

    def __init__(self, max_queue: Optional[int] = None, max_retries: int = 0,
                 retry_backoff: float = 0.5, retry_after: float = 1.0) -> None:
        if max_queue is not None and max_queue < 1:
            raise ServiceError(f"max_queue must be >= 1, got {max_queue}")
        if max_retries < 0:
            raise ServiceError(f"max_retries must be non-negative, got {max_retries}")
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._pending: Deque[str] = deque()
        self._delayed: List[Tuple[float, int, str]] = []  # (ready_at, seq, key)
        self._delay_seq = 0
        #: Jobs currently in state QUEUED.  This — not ``len(_pending)`` —
        #: is the backpressure depth: cancelling a queued job leaves its key
        #: in the deque/heap (skipped at pickup), and stale keys must not
        #: occupy ``max_queue`` slots against fresh submissions.
        self._queued = 0
        self._stopped = False
        self.max_queue = max_queue
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.retry_after = retry_after
        #: Optional :class:`~repro.service.journal.JobJournal`; transitions are
        #: appended under the queue lock once attached.
        self.journal = None
        #: Journal-recovery counts (set by ``JobJournal.recover_into``).
        self.recovered: Dict[str, int] = {"done": 0, "failed": 0,
                                          "cancelled": 0, "requeued": 0,
                                          "dropped": 0}
        # -- counters (reported by /stats) ----------------------------------
        self.submitted = 0    # every submission, coalesced or not
        self.coalesced = 0    # submissions absorbed by a live (queued/running) job
        self.store_hits = 0   # submissions answered from the warm artifact store
        self.executed = 0     # jobs a worker actually computed to completion
        self.failed = 0
        self.cancelled = 0
        self.retries = 0      # retryable failures that re-enqueued a job
        self.timeouts = 0     # wall-clock timeouts (a subset of retries/failed)
        self.rejected = 0     # submissions refused under backpressure
        # Live-depth gauges track the most recently created queue: the gauge
        # callbacks hold only a weakref, so a dead queue reads as 0 rather
        # than keeping itself alive through the process-wide registry.
        ref = weakref.ref(self)
        _G_QUEUE_DEPTH.set_function(
            lambda: queue._queued if (queue := ref()) is not None else 0)
        _G_IN_FLIGHT.set_function(
            lambda: queue._in_flight_count() if (queue := ref()) is not None else 0)

    def _in_flight_count(self) -> int:
        with self._lock:
            return sum(1 for job in self._jobs.values() if job.state == RUNNING)

    # ------------------------------------------------------------------ journal

    def _record(self, event: str, job: Job, **fields: object) -> None:
        """Append a journal event (no-op without a journal).  Caller holds
        the lock, so journal order always matches transition order."""
        if self.journal is not None:
            self.journal.record(event, job.key, **fields)

    # ------------------------------------------------------------------ submit

    def submit(self, request: JobRequest,
               warm_result: Optional[dict] = None) -> tuple:
        """Register a submission; returns ``(job, coalesced)``.

        ``warm_result`` is the pre-rendered payload when the submitter found
        the artifact already in the store: the job is created *born finished*
        (state ``done``), counted as a store hit, and never queued.

        Coalescing: a live job (queued/running) with the same key absorbs the
        submission.  A finished job also absorbs it — ``done`` re-serves the
        retained payload (counted as a hit: the result already exists), while
        ``failed``/``cancelled`` re-enqueue a fresh attempt under the same key.

        Raises :class:`~repro.core.errors.ServiceUnavailable` (without
        enqueueing) when ``max_queue`` is set and the pending depth is at the
        bound.
        """
        with self._lock:
            self.submitted += 1
            job = self._jobs.get(request.key)
            if job is not None:
                if job.state in (QUEUED, RUNNING):
                    job.submissions += 1
                    self.coalesced += 1
                    _M_SUBMITTED.inc()
                    _M_COALESCED.inc()
                    return job, True
                if job.state == DONE:
                    job.submissions += 1
                    self.store_hits += 1
                    _M_SUBMITTED.inc()
                    _M_STORE_HITS.inc()
                    return job, False
                # failed / cancelled: fall through to a fresh attempt.
            if warm_result is None and self.max_queue is not None:
                if self._queued >= self.max_queue:
                    self.submitted -= 1  # never admitted
                    self.rejected += 1
                    _M_REJECTED.inc()
                    raise ServiceUnavailable(
                        f"job queue is full ({self._queued} pending >= "
                        f"max_queue={self.max_queue}); retry in "
                        f"{self.retry_after:g}s",
                        retry_after=self.retry_after)
            job = Job(request)
            self._jobs[request.key] = job
            if warm_result is not None:
                job.state = DONE
                job.started_at = job.finished_at = time.time()
                job.result = warm_result
                self.store_hits += 1
                _M_SUBMITTED.inc()
                _M_STORE_HITS.inc()
                self._record("submit", job, kind=request.kind, body=request.body)
                self._record("done", job, result=warm_result)
                return job, False
            self._pending.append(request.key)
            self._queued += 1
            job.queued_mono = time.monotonic()
            _M_SUBMITTED.inc()
            self._record("submit", job, kind=request.kind, body=request.body)
            self._ready.notify()
            return job, False

    def adopt(self, job: Job) -> None:
        """Install a journal-recovered terminal job into the table verbatim."""
        with self._lock:
            self._jobs[job.key] = job

    # ------------------------------------------------------------------ lookup

    def get(self, key: str) -> Job:
        """The job with this id; raises :class:`ServiceError` if unknown."""
        with self._lock:
            job = self._jobs.get(key)
        if job is None:
            raise ServiceError(f"unknown job {key!r}")
        return job

    def cancel(self, key: str) -> Job:
        """Cancel a job: queued jobs immediately, running jobs cooperatively.

        A queued job moves straight to ``cancelled``.  A running job gets
        :attr:`Job.cancel_requested` set — the worker observes the flag at its
        next simulation round and confirms via :meth:`mark_cancelled`; until
        then the state stays ``running`` (with ``cancel_requested`` visible in
        the status view).  Finished jobs are left alone.
        """
        with self._lock:
            job = self._jobs.get(key)
            if job is None:
                raise ServiceError(f"unknown job {key!r}")
            if job.state == QUEUED:
                job.state = CANCELLED
                job.finished_at = time.time()
                self._queued -= 1
                self.cancelled += 1
                self._record("cancelled", job)
            elif job.state == RUNNING:
                job.cancel_requested = True
                # Journaled so a crash before the worker's next chunk-boundary
                # check recovers the job as cancelled, not as a fresh re-run.
                self._record("cancel_requested", job)
            return job

    # ------------------------------------------------------------------ worker side

    def _promote_due_locked(self) -> None:
        """Move backoff-expired retries from the delay heap to the FIFO."""
        now = time.monotonic()
        while self._delayed and self._delayed[0][0] <= now:
            _, _, key = heapq.heappop(self._delayed)
            self._pending.append(key)

    def next_job(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Block until a job is available (skipping cancelled ones) or the
        queue stops; returns the job already moved to ``running``, or ``None``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                self._promote_due_locked()
                while self._pending:
                    key = self._pending.popleft()
                    job = self._jobs[key]
                    if job.state != QUEUED:  # cancelled while waiting
                        continue
                    self._queued -= 1
                    job.state = RUNNING
                    job.attempts += 1
                    job.started_at = time.time()
                    if job.queued_mono is not None and _trace.is_active():
                        _trace.complete(
                            "job.queue_wait", job.queued_mono, time.monotonic(),
                            "service",
                            {"job": key[:16], "attempt": job.attempts})
                    job.queued_mono = None
                    self._record("running", job)
                    return job
                if self._stopped:
                    return None
                wait = None
                if self._delayed:
                    wait = max(0.0, self._delayed[0][0] - time.monotonic())
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    wait = remaining if wait is None else min(wait, remaining)
                self._ready.wait(timeout=wait)

    def _is_current(self, job: Job, attempt: Optional[int]) -> bool:
        """Whether a worker outcome still applies: the job is running and the
        report comes from its latest attempt.  An abandoned (timed-out)
        execution thread finishing late fails both tests and is ignored."""
        if job.state != RUNNING:
            return False
        return attempt is None or attempt == job.attempts

    def finish(self, job: Job, result: dict,
               attempt: Optional[int] = None) -> None:
        """Mark a running job done with its rendered payload.

        ``attempt`` is the attempt token the worker captured at pickup;
        a stale token (the job timed out and was retried meanwhile) makes the
        call a no-op.
        """
        with self._lock:
            if not self._is_current(job, attempt):
                return
            job.result = result
            job.error = None
            job.state = DONE
            job.finished_at = time.time()
            self.executed += 1
            _M_EXECUTED.inc()
            if job.started_at is not None:
                _M_WALL.observe(job.finished_at - job.started_at)
            self._record("done", job, result=result)

    def fail(self, job: Job, error: str, attempt: Optional[int] = None) -> None:
        """Mark a running job failed; the queue (and server) keep going."""
        with self._lock:
            self._fail_locked(job, error, attempt)

    def _fail_locked(self, job: Job, error: str, attempt: Optional[int]) -> None:
        if not self._is_current(job, attempt):
            return
        job.error = error
        job.state = FAILED
        job.finished_at = time.time()
        self.failed += 1
        _M_FAILED.inc()
        self._record("failed", job, error=error)

    def retry_or_fail(self, job: Job, error: str, retryable: bool,
                      attempt: Optional[int] = None,
                      timed_out: bool = False) -> str:
        """Handle a worker-reported failure: re-enqueue with backoff or fail.

        A retryable error re-enqueues the job (state back to ``queued``) after
        ``retry_backoff * 2**(attempt-1)`` seconds while attempts remain;
        anything else — or an exhausted retry budget — fails the job for good.
        Returns the resulting state.
        """
        with self._lock:
            if not self._is_current(job, attempt):
                return job.state
            if timed_out:
                self.timeouts += 1
                _M_TIMEOUTS.inc()
            if job.cancel_requested:
                # The client asked to cancel; a failure on the way out is a
                # cancellation, not something worth retrying.
                self._mark_cancelled_locked(job)
                return job.state
            if retryable and job.attempts <= self.max_retries:
                job.state = QUEUED
                job.started_at = None
                job.error = error
                self._queued += 1
                delay = self.retry_backoff * (2 ** (job.attempts - 1))
                self.retries += 1
                _M_RETRIES.inc()
                job.queued_mono = time.monotonic() + delay
                if _trace.is_active():
                    _trace.event("job.retry", "service", {
                        "job": job.key[:16], "attempt": job.attempts,
                        "delay": delay})
                self._delay_seq += 1
                heapq.heappush(self._delayed,
                               (time.monotonic() + delay, self._delay_seq,
                                job.key))
                self._record("retry", job, error=error)
                self._ready.notify()  # recompute wait deadlines
            else:
                self._fail_locked(job, error, attempt)
            return job.state

    def mark_cancelled(self, job: Job, attempt: Optional[int] = None) -> None:
        """Confirm a cooperative cancellation observed by the worker."""
        with self._lock:
            if not self._is_current(job, attempt):
                return
            self._mark_cancelled_locked(job)

    def _mark_cancelled_locked(self, job: Job) -> None:
        job.state = CANCELLED
        job.finished_at = time.time()
        self.cancelled += 1
        _M_CANCELLED.inc()
        self._record("cancelled", job)

    # ------------------------------------------------------------------ lifecycle

    def stop(self) -> None:
        """Wake every waiting worker with "no more jobs"."""
        with self._lock:
            self._stopped = True
            self._ready.notify_all()

    # ------------------------------------------------------------------ stats

    def jobs_snapshot(self) -> List[Job]:
        """The job table, copied under the lock (journal compaction input)."""
        with self._lock:
            return list(self._jobs.values())

    def stats(self) -> dict:
        """The queue's JSON-safe counters and per-job wall times (``/stats``)."""
        with self._lock:
            jobs: List[dict] = []
            queue_depth = 0  # QUEUED jobs, whether in the FIFO or delay heap
            in_flight = 0
            for job in self._jobs.values():
                if job.state == QUEUED:
                    queue_depth += 1
                elif job.state == RUNNING:
                    in_flight += 1
                entry = {"job": job.key, "kind": job.request.kind,
                         "state": job.state, "submissions": job.submissions}
                if job.wall_time is not None:
                    entry["wall_time"] = round(job.wall_time, 6)
                if job.attempts > 1:
                    entry["attempts"] = job.attempts
                jobs.append(entry)
            return {
                "queue_depth": queue_depth,
                "in_flight": in_flight,
                "submitted": self.submitted,
                "coalesced": self.coalesced,
                "store_hits": self.store_hits,
                "executed": self.executed,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "retries": self.retries,
                "timeouts": self.timeouts,
                "rejected": self.rejected,
                "recovered": dict(self.recovered),
                "jobs": jobs,
            }


__all__ = ["CANCELLED", "DONE", "FAILED", "Job", "JobQueue", "QUEUED",
           "RUNNING", "TERMINAL_STATES"]
