"""Tests for the service's supervision layer (backpressure, retry, timeout,
cooperative cancel, prompt stop, client retry semantics, SIGTERM).

Fault injection comes from :mod:`repro.testing.faults`; custom protocols are
registered into the wire namespace per-test with ``monkeypatch.setitem``, so
worker threads (same process) decode them while the registry stays pristine
for every other test.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from repro.api import ParallelExecutor, Sweep
from repro.core.cancel import cancellable, checkpoint
from repro.core.errors import ServiceError, ServiceUnavailable
from repro.experiments.implementation_check import THEOREM_PARTS
from repro.kbp.implementation import check_implements
from repro.kbp.safety import check_safety
from repro.logic.formula import InitEquals, Knows
from repro.logic.semantics import ModelChecker
from repro.protocols import BasicProtocol, MinProtocol
from repro.service import (
    THEOREMS,
    JobCancelled,
    JobQueue,
    JobServer,
    ServiceClient,
    decode_request,
    run_request,
    sweep_request,
    wire,
)
from repro.service import workers
from repro.service.jobs import CANCELLED, DONE, FAILED, QUEUED, RUNNING, Job
from repro.service.journal import JobJournal
from repro.service.workers import WorkerPool, _cancel_check
from repro.simulation.batch import BatchSimulator
from repro.store import ArtifactStore
from repro.systems import gamma_basic, gamma_min
from repro.testing import FailOnceProtocol, ServerHarness, SlowProtocol

ROOT = Path(__file__).resolve().parent.parent


def run_body(preferences=(1, 0, 1)):
    return run_request("min", 1, 3, list(preferences))


def wait_for(predicate, timeout=20.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ------------------------------------------------------------------ backpressure


class TestBackpressure:
    def test_queue_rejects_beyond_the_bound(self):
        queue = JobQueue(max_queue=1)
        queue.submit(decode_request(run_body((1, 0, 1))))
        with pytest.raises(ServiceUnavailable) as info:
            queue.submit(decode_request(run_body((0, 1, 1))))
        assert info.value.retry_after > 0
        assert queue.rejected == 1
        # The rejected submission was never admitted anywhere.
        assert queue.submitted == 1
        assert queue.stats()["queue_depth"] == 1

    def test_duplicate_of_a_live_job_is_never_rejected(self):
        """Coalescing wins over backpressure: a duplicate costs nothing."""
        queue = JobQueue(max_queue=1)
        job, _ = queue.submit(decode_request(run_body()))
        again, coalesced = queue.submit(decode_request(run_body()))
        assert again is job and coalesced

    def test_cancelled_jobs_free_their_backpressure_slot(self):
        """A burst of cancellations must not 503 fresh submissions.

        Cancelling a queued job leaves its key in the pending deque (it is
        only skipped at pickup); the depth must count live QUEUED jobs, not
        stale keys, or cancelled jobs keep occupying max_queue slots until a
        worker happens to drain them.
        """
        queue = JobQueue(max_queue=1)
        job, _ = queue.submit(decode_request(run_body((1, 0, 1))))
        queue.cancel(job.key)
        fresh, _ = queue.submit(decode_request(run_body((0, 1, 1))))
        assert fresh.state == QUEUED and queue.rejected == 0
        # The stale key is skipped at pickup; the fresh job is served.
        assert queue.next_job(timeout=1.0) is fresh

    def test_http_503_with_retry_after(self, monkeypatch):
        monkeypatch.setitem(wire.PROTOCOL_FACTORIES, "slow",
                            lambda t: SlowProtocol(t, delay=0.2))
        with JobServer(port=0, workers=1, max_queue=1) as server:
            client = ServiceClient(server.url, retries=0)
            blocker = client.submit(run_request("slow", 1, 3, [1, 0, 1]))
            assert wait_for(lambda: client.status(blocker["job"])["state"]
                            == RUNNING)
            client.submit(run_body((1, 1, 0)))  # fills the queue
            with pytest.raises(ServiceError, match="HTTP 503"):
                client.submit(run_body((0, 0, 1)))
            assert server.queue.rejected == 1


# ------------------------------------------------------------------ retry / timeout


class TestRetryAndTimeout:
    def test_retryable_failure_retries_then_succeeds(self, tmp_path, monkeypatch):
        sentinel = tmp_path / "fail-once"
        monkeypatch.setitem(wire.PROTOCOL_FACTORIES, "failonce",
                            lambda t: FailOnceProtocol(t, sentinel))
        with JobServer(port=0, workers=1, task_retries=2,
                       retry_backoff=0.01) as server:
            client = ServiceClient(server.url)
            payload = client.submit_and_wait(
                run_request("failonce", 1, 3, [1, 0, 1]), timeout=60.0)
            assert payload["kind"] == "run"
            stats = server.queue.stats()
            assert stats["retries"] == 1 and stats["failed"] == 0
            (entry,) = stats["jobs"]
            assert entry["attempts"] == 2

    def test_retry_budget_exhaustion_fails_with_the_error(self, tmp_path,
                                                          monkeypatch):
        """A protocol that fails on *every* attempt exhausts the budget."""
        class AlwaysFail(SlowProtocol):
            def act(self, state):
                raise OSError("disk on fire")

        monkeypatch.setitem(wire.PROTOCOL_FACTORIES, "alwaysfail",
                            lambda t: AlwaysFail(t))
        with JobServer(port=0, workers=1, task_retries=1,
                       retry_backoff=0.01) as server:
            client = ServiceClient(server.url)
            with pytest.raises(ServiceError, match="disk on fire"):
                client.submit_and_wait(
                    run_request("alwaysfail", 1, 3, [1, 0, 1]), timeout=60.0)
            stats = server.queue.stats()
            assert stats["retries"] == 1 and stats["failed"] == 1

    def test_non_retryable_failure_fails_immediately(self, monkeypatch):
        class Broken(SlowProtocol):
            def act(self, state):
                raise ValueError("a bug, not weather")

        monkeypatch.setitem(wire.PROTOCOL_FACTORIES, "broken",
                            lambda t: Broken(t))
        with JobServer(port=0, workers=1, task_retries=3,
                       retry_backoff=0.01) as server:
            client = ServiceClient(server.url)
            with pytest.raises(ServiceError, match="a bug, not weather"):
                client.submit_and_wait(
                    run_request("broken", 1, 3, [1, 0, 1]), timeout=60.0)
            assert server.queue.retries == 0  # never retried

    def test_job_timeout_fails_the_job_not_the_server(self, monkeypatch):
        monkeypatch.setitem(wire.PROTOCOL_FACTORIES, "slow",
                            lambda t: SlowProtocol(t, delay=1.0))
        with JobServer(port=0, workers=1, job_timeout=0.3) as server:
            client = ServiceClient(server.url)
            with pytest.raises(ServiceError, match="wall-clock"):
                client.submit_and_wait(run_request("slow", 1, 3, [1, 0, 1]),
                                       timeout=60.0)
            assert server.queue.timeouts == 1
            # The server keeps serving ordinary jobs afterwards.
            assert client.submit_and_wait(run_body(), timeout=60.0)["kind"] == "run"

    def test_timed_out_job_is_retried_when_budget_allows(self, monkeypatch):
        """First attempt times out, the retry (fast protocol) succeeds —
        pinned via a protocol whose slowness is sentinel-controlled."""
        calls = {"count": 0}

        class SlowOnce(SlowProtocol):
            def act(self, state):
                if calls["count"] == 0:
                    calls["count"] = 1  # flag first, so the retry runs fast
                    time.sleep(2.0)  # blow the first attempt's budget
                return super(SlowProtocol, self).act(state)

        monkeypatch.setitem(wire.PROTOCOL_FACTORIES, "slowonce",
                            lambda t: SlowOnce(t, delay=0.0))
        with JobServer(port=0, workers=1, job_timeout=0.5, task_retries=1,
                       retry_backoff=0.01) as server:
            client = ServiceClient(server.url)
            payload = client.submit_and_wait(
                run_request("slowonce", 1, 3, [1, 0, 1]), timeout=60.0)
            assert payload["kind"] == "run"
            stats = server.queue.stats()
            assert stats["timeouts"] == 1 and stats["retries"] == 1


    def test_a_timed_out_execution_returns_before_the_timeout_is_recorded(
            self, monkeypatch):
        """The timeout is a cancel-scope deadline: the worker's own execution
        stops at its next checkpoint, and only then does the queue hear of
        the timeout.  No execution is left running behind the job."""
        monkeypatch.setitem(wire.PROTOCOL_FACTORIES, "slow",
                            lambda t: SlowProtocol(t, delay=0.3))
        returned = threading.Event()
        original_execute = workers.execute_request

        def tracked(request, store=None):
            try:
                return original_execute(request, store=store)
            finally:
                returned.set()

        monkeypatch.setattr(workers, "execute_request", tracked)
        queue = JobQueue()
        original_retry = queue.retry_or_fail
        returned_at_timeout = []

        def spy(job, error, retryable, timed_out=False, **kwargs):
            if timed_out:
                returned_at_timeout.append(returned.is_set())
            return original_retry(job, error, retryable, timed_out=timed_out,
                                  **kwargs)

        monkeypatch.setattr(queue, "retry_or_fail", spy)
        pool = WorkerPool(queue, workers=1, job_timeout=0.1)
        job, _ = queue.submit(decode_request(run_request("slow", 1, 3, [1, 0, 1])))
        pool.start()
        try:
            assert wait_for(lambda: job.state == FAILED)
        finally:
            pool.stop()
        assert returned_at_timeout == [True]
        assert queue.timeouts == 1 and "wall-clock" in job.error

    def test_a_timed_out_job_starts_no_thread_beyond_the_workers(
            self, monkeypatch):
        """The timeout runs on the worker thread itself: a pool of one starts
        one thread, however many of its jobs time out."""
        monkeypatch.setitem(wire.PROTOCOL_FACTORIES, "slow",
                            lambda t: SlowProtocol(t, delay=0.3))
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self.name)
                super().start()

        monkeypatch.setattr(workers.threading, "Thread", Counted)
        queue = JobQueue()
        pool = WorkerPool(queue, workers=1, job_timeout=0.1)
        slow, _ = queue.submit(decode_request(run_request("slow", 1, 3, [1, 0, 1])))
        fast, _ = queue.submit(decode_request(run_body()))
        pool.start()
        try:
            assert wait_for(lambda: slow.state == FAILED and fast.state == DONE)
        finally:
            pool.stop()
        assert started == ["repro-worker-0"]


# ------------------------------------------------------------------ running-job cancel


class TestCooperativeCancel:
    def test_checkpoint_raises_once_cancel_or_abort_is_set(self):
        for trigger in ("cancel_requested", "abort"):
            job = Job(decode_request(run_body()))
            abort = threading.Event()
            with cancellable(_cancel_check(job, abort)):
                checkpoint()  # neither flag set: a no-op
                if trigger == "abort":
                    abort.set()
                else:
                    job.cancel_requested = True
                with pytest.raises(JobCancelled):
                    checkpoint()
            checkpoint()  # outside the scope: a no-op again

    @pytest.mark.parametrize("seconds_left, raises", [
        (None, False), (60.0, False), (-0.001, True)],
        ids=["no-deadline", "deadline-ahead", "deadline-passed"])
    def test_the_job_deadline_cancels_only_once_passed(self, seconds_left,
                                                       raises):
        """The job timeout is the third cause the scope's check raises on."""
        job = Job(decode_request(run_body()))
        deadline = None if seconds_left is None else time.monotonic() + seconds_left
        with cancellable(_cancel_check(job, threading.Event(), deadline)):
            if raises:
                with pytest.raises(JobCancelled):
                    checkpoint()
            else:
                checkpoint()

    def test_cancel_a_running_sweep(self, monkeypatch):
        monkeypatch.setitem(wire.PROTOCOL_FACTORIES, "slow",
                            lambda t: SlowProtocol(t, delay=0.05))
        body = sweep_request([("slow", 1)],
                             workload={"n": 3, "t": 1, "count": 12, "seed": 0})
        with JobServer(port=0, workers=1, store=ArtifactStore()) as server:
            client = ServiceClient(server.url)
            job_id = client.submit(body)["job"]
            assert wait_for(lambda: client.status(job_id)["state"] == RUNNING)
            receipt = client.cancel(job_id)
            # Cooperative: still running, but flagged.
            assert receipt["state"] in (RUNNING, CANCELLED)
            if receipt["state"] == RUNNING:
                assert receipt["cancel_requested"] is True
            assert wait_for(lambda: client.status(job_id)["state"] == CANCELLED)
            assert server.queue.cancelled == 1
            # The worker is free again: a fresh job completes.
            assert client.submit_and_wait(run_body(), timeout=60.0)["kind"] == "run"

    def test_cancel_a_running_sweep_on_a_process_pool(self):
        """The parent polls the scope as each chunk completes, and cancels
        the chunks that have not started."""
        # 48 one-task chunks of several sleeping act calls each: ~7.5 s on
        # two workers, were the sweep to run to the end.
        spec = Sweep.of(SlowProtocol(1, delay=0.05)).on_random(3, 1, count=48, seed=0).build()
        cancel = threading.Event()

        def check():
            if cancel.is_set():
                raise JobCancelled("sweep")

        timer = threading.Timer(0.5, cancel.set)
        started = time.monotonic()
        timer.start()
        try:
            with cancellable(check), pytest.raises(JobCancelled):
                ParallelExecutor(max_workers=2, chunksize=1).run_tasks(spec.tasks())
        finally:
            timer.cancel()
        assert time.monotonic() - started < 3.0


class TestEveryLongPhasePolls:
    """Each long phase polls the cancel scope, so a stop lands within one
    round, one formula evaluation, one scan step or one protocol call."""

    @staticmethod
    def _scope():
        armed = threading.Event()

        def check():
            if armed.is_set():
                raise JobCancelled("check")
        return armed, check

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_check_implements_raises_after_the_system_is_built(
            self, n3_system, theorem):
        armed, check = self._scope()
        protocol, program, context = THEOREM_PARTS[theorem](3, 1)
        with cancellable(check):
            system = n3_system(protocol, context)
            armed.set()
            with pytest.raises(JobCancelled):
                check_implements(protocol, program, context, system=system)

    @pytest.mark.parametrize("protocol, context", [
        (MinProtocol(1), gamma_min(3, 1)),
        (BasicProtocol(1), gamma_basic(3, 1)),
    ], ids=["P_min", "P_basic"])
    def test_check_safety_raises_after_the_system_is_built(
            self, n3_system, protocol, context):
        armed, check = self._scope()
        with cancellable(check):
            system = n3_system(protocol, context)
            armed.set()
            with pytest.raises(JobCancelled):
                check_safety(protocol, context, system=system)

    def test_the_model_checker_polls_on_each_evaluation(self, n3_system):
        armed, check = self._scope()
        checker = ModelChecker(n3_system(MinProtocol(1), gamma_min(3, 1)))
        cached = InitEquals(0, 0)
        with cancellable(check):
            checker.satisfying_words(cached)
            armed.set()
            checker.satisfying_words(cached)  # a cache hit evaluates nothing
            with pytest.raises(JobCancelled):
                checker.satisfying_words(Knows(0, cached))

    def test_the_engine_polls_before_each_protocol_call(self):
        armed, check = self._scope()
        calls = []

        class Arming(MinProtocol):
            def act(self, state):
                calls.append(state.agent)
                armed.set()
                return super().act(state)

        with cancellable(check), pytest.raises(JobCancelled):
            BatchSimulator(Arming(1), 3).simulate_scenarios([((0, 1, 1), None)])
        assert calls == [0]


class TestOneSimulatorPerProtocol:
    def test_a_service_sweep_builds_one_simulator_per_protocol(self, monkeypatch):
        """A worker runs a sweep as one engine call per protocol: the cancel
        scope needs no chunking."""
        built = []
        original = BatchSimulator.__init__

        def spy(self, protocol, n):
            built.append(protocol.name)
            original(self, protocol, n)

        monkeypatch.setattr(BatchSimulator, "__init__", spy)
        queue = JobQueue()
        pool = WorkerPool(queue, store=ArtifactStore(), workers=1)
        job, _ = queue.submit(decode_request(sweep_request(
            [("min", 1), ("basic", 1)],
            workload={"n": 4, "t": 1, "count": 64, "seed": 0})))
        pool.start()
        try:
            assert wait_for(lambda: job.state == DONE)
        finally:
            pool.stop()
        assert built == ["P_min", "P_basic"]


# ------------------------------------------------------------------ prompt stop


class TestPromptStop:
    def test_stop_aborts_a_running_job_and_a_successor_finishes_it(
            self, tmp_path, monkeypatch):
        monkeypatch.setitem(wire.PROTOCOL_FACTORIES, "slow",
                            lambda t: SlowProtocol(t, delay=0.02))
        # ~60 sleeping act calls over 12 rounds: ~1.2 s, ~0.1 s per round.
        body = sweep_request([("slow", 1)],
                             workload={"n": 3, "t": 1, "count": 2, "seed": 0},
                             horizon=12)
        journal = tmp_path / "jobs.jsonl"
        server = JobServer(port=0, workers=1, journal=journal).start()
        try:
            client = ServiceClient(server.url)
            job_id = client.submit(body)["job"]
            assert wait_for(lambda: client.status(job_id)["state"] == RUNNING)
        finally:
            started = time.monotonic()
            server.stop()
            elapsed = time.monotonic() - started
        assert elapsed < 1.0
        # Neither cancelled nor failed: the journal still says running.
        assert server.queue.cancelled == 0 and server.queue.failed == 0
        assert JobJournal(journal).replay()[job_id]["state"] == RUNNING
        with JobServer(port=0, workers=1, journal=journal) as successor:
            assert successor.queue.recovered["requeued"] == 1
            payload = ServiceClient(successor.url).wait(job_id, poll_interval=0.02,
                                                        timeout=60.0)
            assert payload["kind"] == "sweep"

    def test_idle_stop_returns_within_one_poll(self):
        server = JobServer(port=0, workers=1).start()
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 0.2

    def test_stop_returns_within_one_round(self, monkeypatch):
        """``stop()`` waits one HTTP poll and one simulation round, no more."""
        monkeypatch.setitem(wire.PROTOCOL_FACTORIES, "slow",
                            lambda t: SlowProtocol(t, delay=0.02))
        # ~0.1 s per round, as above.
        body = sweep_request([("slow", 1)],
                             workload={"n": 3, "t": 1, "count": 2, "seed": 0},
                             horizon=12)
        server = JobServer(port=0, workers=1).start()
        try:
            client = ServiceClient(server.url)
            job_id = client.submit(body)["job"]
            assert wait_for(lambda: client.status(job_id)["state"] == RUNNING)
        finally:
            started = time.monotonic()
            server.stop()
            elapsed = time.monotonic() - started
        assert elapsed < 0.3


# ------------------------------------------------------------------ client retries


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Serves a pre-programmed list of (status, headers, payload) responses."""

    def _serve(self):
        script = self.server.script  # type: ignore[attr-defined]
        self.server.hits += 1  # type: ignore[attr-defined]
        status, headers, payload = (script.pop(0) if script
                                    else (200, {}, {"ok": True}))
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = _serve

    def log_message(self, *args):  # quiet
        pass


@pytest.fixture()
def scripted_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script = []
    server.hits = 0
    # A short poll: shutdown() waits for serve_forever's next poll, 0.5 s by default.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


class TestClientRetries:
    def url(self, server):
        host, port = server.server_address[:2]
        return f"http://{host}:{port}"

    def test_5xx_is_retried_until_success(self, scripted_server):
        scripted_server.script[:] = [
            (500, {}, {"error": "transient"}),
            (502, {}, {"error": "still transient"}),
            (200, {}, {"ok": True}),
        ]
        client = ServiceClient(self.url(scripted_server), retries=3,
                               backoff=0.01)
        assert client.healthz() == {"ok": True}
        assert scripted_server.hits == 3

    def test_503_retry_after_is_honoured(self, scripted_server):
        scripted_server.script[:] = [
            (503, {"Retry-After": "0.2"}, {"error": "queue full"}),
            (200, {}, {"job": "k", "state": "queued", "coalesced": False,
                       "hit": False}),
        ]
        client = ServiceClient(self.url(scripted_server), retries=2,
                               backoff=5.0)  # backoff would be way too slow
        started = time.monotonic()
        receipt = client.submit({"type": "run"})
        elapsed = time.monotonic() - started
        assert receipt["job"] == "k"
        # Retry-After (0.2s) replaced the 5s backoff...
        assert elapsed < 3.0
        # ...but some pause happened.
        assert elapsed >= 0.15

    def test_4xx_is_never_retried(self, scripted_server):
        scripted_server.script[:] = [(400, {}, {"error": "malformed"})]
        client = ServiceClient(self.url(scripted_server), retries=5,
                               backoff=0.01)
        with pytest.raises(ServiceError, match="HTTP 400"):
            client.healthz()
        assert scripted_server.hits == 1

    def test_404_is_never_retried(self, scripted_server):
        scripted_server.script[:] = [(404, {}, {"error": "no such job"})]
        client = ServiceClient(self.url(scripted_server), retries=5,
                               backoff=0.01)
        with pytest.raises(ServiceError, match="HTTP 404"):
            client.status("nope")
        assert scripted_server.hits == 1

    def test_5xx_budget_exhaustion_raises(self, scripted_server):
        scripted_server.script[:] = [(500, {}, {"error": "down"})] * 10
        client = ServiceClient(self.url(scripted_server), retries=2,
                               backoff=0.01)
        with pytest.raises(ServiceError, match="HTTP 500"):
            client.healthz()
        assert scripted_server.hits == 3  # 1 try + 2 retries

    def test_result_500_is_not_retried(self, scripted_server):
        """A failed job's 500 is an answer, not an outage: result() must
        raise immediately instead of sleeping through the retry budget."""
        scripted_server.script[:] = [(500, {}, {"error": "the traceback"})] * 6
        client = ServiceClient(self.url(scripted_server), retries=5,
                               backoff=5.0)  # retrying would stall for ages
        with pytest.raises(ServiceError, match="HTTP 500"):
            client.result("k")
        assert scripted_server.hits == 1

    def test_expect_errors_short_circuits_retries(self, scripted_server):
        scripted_server.script[:] = [(500, {}, {"error": "the traceback"})]
        client = ServiceClient(self.url(scripted_server), retries=5,
                               backoff=0.01)
        payload = client._request("GET", "/jobs/k/result", expect_errors=True)
        assert payload == {"error": "the traceback"}
        assert scripted_server.hits == 1


# ------------------------------------------------------------------ SIGTERM


class TestSigterm:
    def test_sigterm_shuts_down_gracefully(self, tmp_path):
        harness = ServerHarness(ROOT, workers=1)
        with harness:
            url = harness.start()
            client = ServiceClient(url, retries=3, backoff=0.1)
            assert client.healthz() == {"ok": True}
            code = harness.kill(sig=signal.SIGTERM)
        assert code == 0

    def test_sigterm_with_a_running_job_requeues_it_on_restart(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        harness = ServerHarness(ROOT, workers=1, extra_args=["--journal", str(journal)])
        # ~2 000 rounds of ~1.5 ms each: seconds of work, a round at a time.
        body = sweep_request([("min", 1), ("basic", 1)],
                             workload={"n": 6, "t": 1, "count": 40, "seed": 7},
                             horizon=1000)
        with harness:
            client = ServiceClient(harness.start(), retries=3, backoff=0.1)
            job_id = client.submit(body)["job"]
            assert wait_for(lambda: client.status(job_id)["state"] == RUNNING)
            started = time.monotonic()
            code = harness.kill(sig=signal.SIGTERM)
            assert code == 0
            assert time.monotonic() - started < 2.0
            successor = ServiceClient(harness.start(), retries=3, backoff=0.1)
            assert successor.stats()["service"]["recovered"]["requeued"] == 1
