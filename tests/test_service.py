"""Tests for the job-server subsystem (:mod:`repro.service`).

Covers the four layers separately and end to end:

* the wire format — protocol/pattern/request round trips, content keys that
  equal the artifact-store keys, malformed bodies raising ``ServiceError``;
* the job queue — coalescing, warm-born jobs, cancellation, the counters;
* the HTTP server + client — submit/poll/result/cancel, worker-crash
  isolation, graceful shutdown;
* the acceptance property — two concurrent identical submissions against a
  cold store execute **once** and return byte-identical payloads, themselves
  byte-identical to the direct (CLI-path) computation.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.api import RunSpec, Sweep
from repro.core.errors import ServiceError, ServiceTimeout
from repro.experiments import implementation_check
from repro.failures import FailurePattern
from repro.protocols import MinProtocol
from repro.service import (
    DEFAULT_PORT,
    JobQueue,
    JobServer,
    ServiceClient,
    decode_request,
    encode_pattern,
    probe_warm,
    render_result,
    run_request,
    sweep_request,
    theorem_request,
)
from repro.service import server as server_module
from repro.service import wire
from repro.service.jobs import CANCELLED, DONE, FAILED, QUEUED, RUNNING
from repro.store import (
    ArtifactStore,
    default_store,
    implementation_report_key,
    run_task_key,
    sweep_key,
)


def tiny_run_body():
    return run_request("min", 1, 3, [1, 0, 1])


def tiny_sweep_body(seed=0):
    return sweep_request([("min", 1), ("opt", 1)],
                         workload={"n": 3, "t": 1, "count": 4, "seed": seed})


def sigterm_sweep_body(count=40):
    """``TestSigterm``'s sweep: 2 protocols × 40 scenarios × 1000 rounds × n²=36."""
    return sweep_request([("min", 1), ("basic", 1)],
                         workload={"n": 6, "t": 1, "count": count, "seed": 7},
                         horizon=1000)


# --------------------------------------------------------------------------- wire


class TestWireFormat:
    @pytest.mark.parametrize("theorem, n, t", [
        ("a21", 5, 1), ("6.5", 5, 1), ("6.6", 3, 2)])
    def test_every_checked_theorem_size_is_admitted(self, theorem, n, t):
        assert decode_request(theorem_request(theorem, n, t)).kind == "theorem"

    #: The largest sweep and run bodies the tests, ``tools/service_smoke.py``
    #: and the benchmark's service-mix send.
    @pytest.mark.parametrize("body", [
        sigterm_sweep_body(),
        sweep_request([("min", 1), ("basic", 1)],
                      workload={"n": 4, "t": 1, "count": 64, "seed": 0}),
        sweep_request([("min", 2), ("basic", 2), ("opt", 2)],
                      scenarios=[((1, 1, 1, 1, 1, 0), FailurePattern.failure_free(6))], n=6),
        run_request("min", 1, 4, [1, 1, 0, 1],
                    pattern=FailurePattern.silent(4, faulty=[1], horizon=3)),
    ], ids=["sigterm-sweep", "service-mix-sweep", "smoke-sweep", "run"])
    def test_every_sent_sweep_and_run_is_admitted(self, body):
        assert decode_request(body).kind == body["type"]

    @pytest.mark.parametrize("body, work", [
        (sigterm_sweep_body(count=400), 2 * 400 * 1000 * 36),
        (sweep_request([("min", 1)], scenarios=[((1, 0, 1), FailurePattern.failure_free(3))] * 5,
                       horizon=10 ** 6),
         5 * 10 ** 6 * 9),
        (sweep_request([("min", 1)], workload={"n": 3, "t": 1, "count": 10 ** 12}),
         10 ** 12 * 24 * 9),
        (run_request("min", 1, 3, [1, 0, 1], horizon=10 ** 9), 10 ** 9 * 9),
    ], ids=["sweep-count", "sweep-scenarios", "sweep-no-horizon", "run-horizon"])
    def test_an_oversized_sweep_or_run_is_refused_naming_the_numbers(self, body, work):
        """Refused before any scenario is generated: a 10^12-scenario workload is instant."""
        with pytest.raises(ServiceError) as info:
            decode_request(body)
        assert str(work) in str(info.value)
        assert f"MAX_SIMULATION_WORK={wire.MAX_SIMULATION_WORK}" in str(info.value)

    @pytest.mark.parametrize("field, value", [("count", "3"), ("n", 2.5)])
    def test_a_non_integer_sweep_size_is_refused_before_it_is_multiplied(self, field, value):
        workload = {"n": 3, "t": 1, "count": 4, field: value}
        with pytest.raises(ServiceError, match="invalid sweep request: .* must be an integer"):
            decode_request(sweep_request([("min", 1)], workload=workload, horizon=10 ** 6))

    def test_a_huge_theorem_is_refused_without_counting_its_patterns(self):
        """Past the bound, 2^n alone is reported: no pattern count is made."""
        with pytest.raises(ServiceError, match=str(2 ** 64)):
            decode_request(theorem_request("6.5", 64, 1))

    @pytest.mark.parametrize("theorem", wire.THEOREMS)
    def test_theorem_key_is_the_report_key_of_its_table_entry(self, theorem):
        protocol, program, context = implementation_check.THEOREM_PARTS[theorem](3, 1)
        key = implementation_report_key(protocol, program, context, None, 10)
        assert implementation_check.theorem_report_key(theorem, 3, 1) == key
        assert decode_request(theorem_request(theorem, 3, 1)).key == key

    @pytest.mark.parametrize("name, theorem", [
        ("check_theorem_6_5", "6.5"), ("check_theorem_6_6", "6.6"),
        ("check_theorem_a21", "a21")])
    def test_each_named_theorem_check_reads_the_one_table(self, monkeypatch,
                                                          name, theorem):
        checked = []

        def record(protocol, program, context, store=None):
            checked.append(implementation_report_key(protocol, program, context,
                                                     None, 10))

        monkeypatch.setattr(implementation_check, "check_implements", record)
        getattr(implementation_check, name)(3, 1)
        assert checked == [implementation_check.theorem_report_key(theorem, 3, 1)]

    def test_protocol_round_trip(self):
        for key in ("min", "basic", "opt", "naive0", "delayed"):
            protocol = decode_request(
                {"type": "run", "protocol": key, "t": 2, "n": 5,
                 "preferences": [1] * 5}).spec.protocol
            expected = wire.PROTOCOL_FACTORIES[key](2)
            assert type(protocol) is type(expected) and vars(protocol) == vars(expected)

    def test_pattern_round_trip(self):
        pattern = FailurePattern.silent(4, faulty=[1], horizon=3)
        body = run_request("min", 1, 4, [1, 1, 0, 1], pattern=pattern)
        request = decode_request(body)
        assert request.spec.pattern == pattern

    def test_run_key_is_the_store_run_key(self):
        request = decode_request(tiny_run_body())
        spec = request.spec
        preferences, pattern = spec.scenario  # pattern=None normalised, as run() does
        task = (spec.protocol, spec.n, preferences, pattern, spec.horizon)
        assert request.key == run_task_key(task)

    def test_sweep_key_is_the_store_sweep_key(self):
        request = decode_request(tiny_sweep_body())
        assert request.key == sweep_key(request.spec)

    def test_sweep_workload_matches_builder_spec(self):
        """A 'workload' sweep decodes to the same content key as the same
        sweep built locally with the fluent API — the service coalesces with
        direct library users, not just with other service clients."""
        request = decode_request(tiny_sweep_body())
        from repro.protocols.popt import OptimalFipProtocol
        built = (Sweep.of(MinProtocol(1), OptimalFipProtocol(1))
                 .on_random(n=3, t=1, count=4, seed=0).build())
        assert request.key == sweep_key(built)
        assert request.spec.scenarios == built.scenarios

    @pytest.mark.parametrize("body, fragment", [
        ("not an object", "JSON object"),
        ({}, "'type'"),
        ({"type": "nope"}, "unknown request kind"),
        ({"type": "run", "protocol": "nope", "t": 1, "n": 3,
          "preferences": [1, 1, 1]}, "unknown protocol"),
        ({"type": "run", "protocol": "min", "t": -1, "n": 3,
          "preferences": [1, 1, 1]}, "non-negative"),
        ({"type": "run", "protocol": "min", "t": 1}, "'n'"),
        ({"type": "theorem", "theorem": "9.9", "n": 3, "t": 1},
         "unknown theorem"),
        ({"type": "sweep", "protocols": [{"protocol": "min", "t": 1}],
          "workload": {"n": 3, "t": 1, "count": 2}, "scenarios": []},
         "not both"),
        # Wrong-typed fields and specs that fail validation.
        ({"type": "run", "protocol": "min", "t": 1, "n": 3, "preferences": 5},
         "invalid run request"),
        ({"type": "sweep", "protocols": 5, "scenarios": []}, "invalid sweep request"),
        ({"type": "sweep", "protocols": [{"protocol": "min", "t": 1}], "scenarios": 5},
         "invalid sweep request"),
        ({"type": "sweep", "protocols": [{"protocol": "min", "t": 1}],
          "scenarios": [[5, None]]}, "invalid sweep request"),
        ({"type": "sweep", "protocols": [{"protocol": "min", "t": 1}], "n": "x",
          "scenarios": [[[1, 1, 1], None]]}, "invalid sweep request"),
    ])
    def test_malformed_bodies_raise_service_error(self, body, fragment):
        with pytest.raises(ServiceError, match=fragment.replace("'", "")):
            decode_request(body)

    def test_builder_rejects_ambiguous_sweep(self):
        with pytest.raises(ServiceError):
            sweep_request([("min", 1)])  # neither scenarios nor workload

    def test_encode_protocol_rejects_unregistered(self):
        with pytest.raises(ServiceError, match="unknown protocol key 'odd'"):
            decode_request({"type": "run", "protocol": "odd", "t": 1, "n": 4,
                            "preferences": [1] * 4})

    def test_request_bodies_are_json_serialisable(self):
        pattern = FailurePattern.silent(3, faulty=[0], horizon=2)
        for body in (tiny_run_body(), tiny_sweep_body(),
                     theorem_request("6.5", 3, 1),
                     sweep_request([("min", 1)], scenarios=[((1, 0, 1), pattern)],
                                   n=3)):
            assert decode_request(json.loads(json.dumps(body))).key

    def test_pattern_encoding_is_canonical(self):
        pattern = FailurePattern.silent(4, faulty=[2, 1], horizon=2)
        encoded = encode_pattern(pattern)
        assert encoded["faulty"] == sorted(encoded["faulty"])
        assert encoded["omissions"] == sorted(encoded["omissions"])


# --------------------------------------------------------------------------- queue


class TestJobQueue:
    def test_submit_then_drain(self):
        queue = JobQueue()
        request = decode_request(tiny_run_body())
        job, coalesced = queue.submit(request)
        assert (job.state, coalesced) == (QUEUED, False)
        picked = queue.next_job(timeout=1.0)
        assert picked is job and job.state == RUNNING
        queue.finish(job, {"kind": "run"})
        assert job.state == DONE and queue.executed == 1

    def test_identical_submissions_coalesce_while_live(self):
        queue = JobQueue()
        request = decode_request(tiny_run_body())
        first, _ = queue.submit(request)
        second, coalesced = queue.submit(decode_request(tiny_run_body()))
        assert coalesced and second is first and first.submissions == 2
        queue.next_job(timeout=1.0)  # running now: still coalesces
        third, coalesced = queue.submit(request)
        assert coalesced and third is first
        assert (queue.submitted, queue.coalesced) == (3, 2)

    def test_distinct_requests_do_not_coalesce(self):
        queue = JobQueue()
        first, _ = queue.submit(decode_request(tiny_sweep_body(seed=0)))
        second, coalesced = queue.submit(decode_request(tiny_sweep_body(seed=1)))
        assert not coalesced and second is not first

    def test_done_job_reserves_without_requeue(self):
        queue = JobQueue()
        job, _ = queue.submit(decode_request(tiny_run_body()))
        queue.next_job(timeout=1.0)
        queue.finish(job, {"kind": "run"})
        again, coalesced = queue.submit(decode_request(tiny_run_body()))
        assert again is job and not coalesced
        assert queue.store_hits == 1
        assert queue.next_job(timeout=0.05) is None  # nothing re-enqueued

    def test_warm_result_is_born_done(self):
        queue = JobQueue()
        job, coalesced = queue.submit(decode_request(tiny_run_body()),
                                      warm_result={"kind": "run"})
        assert job.state == DONE and not coalesced
        assert job.result == {"kind": "run"} and queue.store_hits == 1

    def test_failed_key_gets_a_fresh_attempt(self):
        queue = JobQueue()
        job, _ = queue.submit(decode_request(tiny_run_body()))
        queue.next_job(timeout=1.0)
        queue.fail(job, "boom")
        retry, coalesced = queue.submit(decode_request(tiny_run_body()))
        assert retry is not job and not coalesced and retry.state == QUEUED

    def test_cancel_only_affects_queued_jobs(self):
        queue = JobQueue()
        job, _ = queue.submit(decode_request(tiny_run_body()))
        assert queue.cancel(job.key).state == CANCELLED
        assert queue.next_job(timeout=0.05) is None  # skipped, not handed out
        running, _ = queue.submit(decode_request(tiny_sweep_body()))
        queue.next_job(timeout=1.0)
        assert queue.cancel(running.key).state == RUNNING  # left alone

    def test_unknown_job_raises(self):
        with pytest.raises(ServiceError, match="unknown job"):
            JobQueue().get("deadbeef")

    def test_stats_shape(self):
        queue = JobQueue()
        queue.submit(decode_request(tiny_run_body()))
        stats = queue.stats()
        assert stats["queue_depth"] == 1 and stats["in_flight"] == 0
        assert set(stats) == {"queue_depth", "in_flight", "submitted",
                              "coalesced", "store_hits", "executed", "failed",
                              "cancelled", "retries", "timeouts", "rejected",
                              "recovered", "jobs"}
        (entry,) = stats["jobs"]
        assert entry["state"] == QUEUED and entry["kind"] == "run"

    def test_stop_releases_blocked_workers(self):
        queue = JobQueue()
        seen = []
        worker = threading.Thread(target=lambda: seen.append(queue.next_job()))
        worker.start()
        queue.stop()
        worker.join(timeout=2.0)
        assert seen == [None] and not worker.is_alive()


# --------------------------------------------------------------------------- warm probe


class TestWarmProbe:
    def test_cold_store_and_no_store_probe_none(self):
        request = decode_request(tiny_run_body())
        assert probe_warm(request, None) is None
        assert probe_warm(request, ArtifactStore()) is None

    def test_cli_path_artifacts_answer_service_requests(self, tmp_path):
        """A store warmed by direct library calls serves all three kinds."""
        store = default_store(tmp_path / "cache")
        # run
        run_req = decode_request(tiny_run_body())
        trace = RunSpec(protocol=run_req.spec.protocol, n=3,
                        preferences=(1, 0, 1)).run(store=store)
        assert probe_warm(run_req, store) == render_result(run_req, trace)
        # theorem (what `repro-eba cache warm --n 3 --t 1` builds)
        report = implementation_check.check_theorem_6_5(3, 1, store=store)
        theorem_req = decode_request(theorem_request("6.5", 3, 1))
        assert probe_warm(theorem_req, store) == render_result(theorem_req, report)
        # sweep
        sweep_req = decode_request(tiny_sweep_body())
        results = sweep_req.spec.run(store=store)
        assert probe_warm(sweep_req, store) == render_result(sweep_req, results)


# --------------------------------------------------------------------------- server


@pytest.fixture
def server(tmp_path):
    with JobServer(port=0, workers=2,
                   store=default_store(tmp_path / "cache")) as running:
        yield running


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=10.0)


class TestJobServer:
    def test_healthz_and_default_port_constant(self, client):
        assert client.healthz() == {"ok": True}
        assert DEFAULT_PORT == 8322

    def test_submit_wait_fetch_run(self, client):
        payload = client.submit_and_wait(tiny_run_body(), timeout=60.0)
        assert payload["kind"] == "run" and payload["eba_ok"] is True
        assert "timeline" in payload and payload["protocol"] == "P_min"

    def test_submit_wait_fetch_theorem(self, client):
        payload = client.submit_and_wait(theorem_request("6.5", 3, 1),
                                         timeout=120.0)
        assert payload["holds"] is True and payload["checked_states"] > 0

    def test_resubmission_is_a_warm_hit(self, client):
        client.submit_and_wait(tiny_run_body(), timeout=60.0)
        receipt = client.submit(tiny_run_body())
        assert receipt["state"] == DONE
        assert receipt["hit"] is True and receipt["coalesced"] is False

    def test_malformed_submission_is_http_400(self, client):
        with pytest.raises(ServiceError, match="HTTP 400"):
            client.submit({"type": "run", "protocol": "nope", "t": 1, "n": 3,
                           "preferences": [1, 1, 1]})

    @pytest.mark.parametrize("n, t, runs", [(4, 2, 1_610_874_896),
                                            (6, 1, 12_582_976)])
    def test_oversized_theorem_is_http_400_naming_both_numbers(
            self, server, client, n, t, runs):
        """A theorem whose system would exhaust memory is refused at the edge."""
        with pytest.raises(ServiceError, match="HTTP 400") as info:
            client.submit(theorem_request("6.5", n, t))
        assert str(runs) in str(info.value)
        assert str(wire.MAX_THEOREM_RUNS) in str(info.value)
        assert server.queue.submitted == 0

    def test_oversized_sweep_is_http_400_naming_the_numbers(self, server, client):
        """``TestSigterm``'s sweep with ten times its scenarios is refused at the edge."""
        with pytest.raises(ServiceError, match="HTTP 400") as info:
            client.submit(sigterm_sweep_body(count=400))
        message = str(info.value)
        assert "2 protocol(s) × 400 scenario(s) × 1000 rounds × n²=36" in message
        assert f"is {2 * 400 * 1000 * 36}" in message
        assert str(wire.MAX_SIMULATION_WORK) in message
        assert server.queue.submitted == 0

    def test_wrong_typed_field_is_http_400(self, client):
        with pytest.raises(ServiceError, match="HTTP 400"):
            client.submit({"type": "sweep", "protocols": 5, "scenarios": []})

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_invalid_content_length_is_http_400(self, server, length):
        """The response comes at once and the server then closes the connection."""
        body = b'{"type": "run"}'
        with socket.create_connection(server.address, timeout=3.0) as conn:
            conn.sendall(b"POST /jobs HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Length: " + length.encode() + b"\r\n\r\n" + body)
            response = b""
            while chunk := conn.recv(4096):
                response += chunk
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"Content-Length" in response.split(b"\r\n\r\n", 1)[1]

    def test_stalled_body_is_http_408(self, server, monkeypatch):
        """A body shorter than its Content-Length times out instead of hanging."""
        monkeypatch.setattr(server_module._ServiceHandler, "timeout", 0.2)
        body = b'{"type": "run"}'
        with socket.create_connection(server.address, timeout=3.0) as conn:
            started = time.monotonic()
            conn.sendall(b"POST /jobs HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Length: 100\r\n\r\n" + body)
            response = b""
            while chunk := conn.recv(4096):
                response += chunk
            elapsed = time.monotonic() - started
        assert response.startswith(b"HTTP/1.1 408 ")
        assert b"Connection: close" in response.split(b"\r\n\r\n", 1)[0]
        assert elapsed < 2.0

    def test_trickled_body_is_http_408_at_the_deadline(self, server, monkeypatch):
        """The timeout bounds the whole body, not each read.

        One byte every 0.1 s never stalls a single read for 0.2 s, so only a
        deadline over the whole body answers before the 100 bytes are in.
        The client stops sending once a response is readable, so the server
        closes with nothing unread.
        """
        import select
        monkeypatch.setattr(server_module._ServiceHandler, "timeout", 0.2)
        with socket.create_connection(server.address, timeout=3.0) as conn:
            started = time.monotonic()
            conn.sendall(b"POST /jobs HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Length: 100\r\n\r\n")
            readable = False
            for _ in range(100):
                readable, _, _ = select.select([conn], [], [], 0.05)
                if readable:
                    break
                conn.sendall(b" ")
                readable, _, _ = select.select([conn], [], [], 0.05)
                if readable:
                    break
            response = b""
            while chunk := conn.recv(4096):
                response += chunk
            elapsed = time.monotonic() - started
        assert response.startswith(b"HTTP/1.1 408 ")
        assert b"Connection: close" in response.split(b"\r\n\r\n", 1)[0]
        assert elapsed < 1.0

    def test_body_sent_in_pieces_within_the_timeout_is_served(self, server, monkeypatch):
        """A body that arrives in several pieces before the timeout is assembled."""
        monkeypatch.setattr(server_module._ServiceHandler, "timeout", 2.0)
        body = json.dumps(tiny_run_body()).encode()
        third = len(body) // 3 + 1
        with socket.create_connection(server.address, timeout=10.0) as conn:
            conn.sendall(b"POST /jobs HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
                         b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n")
            for start in range(0, len(body), third):
                time.sleep(0.05)
                conn.sendall(body[start:start + third])
            response = b""
            while chunk := conn.recv(4096):
                response += chunk
        assert response.startswith((b"HTTP/1.1 200 ", b"HTTP/1.1 202 "))
        receipt = json.loads(response.split(b"\r\n\r\n", 1)[1])
        assert receipt["job"] == decode_request(tiny_run_body()).key

    def test_unknown_job_is_http_404(self, client):
        with pytest.raises(ServiceError, match="HTTP 404"):
            client.status("deadbeef")
        with pytest.raises(ServiceError, match="HTTP 404"):
            client.result("deadbeef")

    def test_unknown_endpoint_is_http_404(self, client):
        with pytest.raises(ServiceError, match="HTTP 404"):
            client._request("GET", "/nope")

    def test_worker_exception_fails_job_but_server_survives(self, server, client,
                                                            monkeypatch):
        """Acceptance criterion: a crashing job never takes the service down."""
        import repro.service.workers as workers_mod
        real = workers_mod.execute_request

        def crash_theorems(request, store=None):
            if request.kind == "theorem":
                raise RuntimeError("injected worker crash")
            return real(request, store=store)

        monkeypatch.setattr(workers_mod, "execute_request", crash_theorems)
        receipt = client.submit(theorem_request("6.5", 3, 1))
        with pytest.raises(ServiceError, match="injected worker crash"):
            client.wait(receipt["job"], poll_interval=0.01, timeout=30.0)
        assert client.status(receipt["job"])["state"] == FAILED
        # The server is still fully functional afterwards.
        assert client.healthz() == {"ok": True}
        payload = client.submit_and_wait(tiny_run_body(), timeout=60.0)
        assert payload["kind"] == "run"
        stats = client.stats()["service"]
        assert stats["failed"] == 1 and stats["executed"] == 1

    def test_stats_embeds_store_schema(self, client):
        client.submit_and_wait(tiny_run_body(), timeout=60.0)
        stats = client.stats()
        assert stats["workers"] == 2
        assert set(stats["store"]) == {"entries", "total_bytes", "by_kind",
                                       "session"}
        jobs = stats["service"]["jobs"]
        assert jobs and all(set(job) >= {"job", "kind", "state", "submissions"}
                            for job in jobs)

    def test_wait_timeout_raises_service_timeout(self, monkeypatch):
        import repro.service.workers as workers_mod
        gate = threading.Event()

        def block_until_released(request, store=None):
            gate.wait(30.0)
            return {"kind": request.kind}

        monkeypatch.setattr(workers_mod, "execute_request", block_until_released)
        try:
            with JobServer(port=0, workers=1) as server:
                client = ServiceClient(server.url)
                receipt = client.submit(tiny_run_body())
                with pytest.raises(ServiceTimeout, match="still"):
                    client.wait(receipt["job"], poll_interval=0.01, timeout=0.25)
                # Release the worker before leaving the with block: stop()
                # joins the workers, and a blocked one would hold it for the
                # pool's whole shutdown timeout.
                gate.set()
        finally:
            gate.set()  # backstop if the server failed before the release above

    def test_client_retries_then_reports_unreachable(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.2,
                               retries=1, backoff=0.01)
        with pytest.raises(ServiceError, match="could not reach"):
            client.healthz()


class TestCoalescing:
    def test_concurrent_identical_submissions_execute_once(self, tmp_path):
        """The acceptance criterion, end to end against a cold store.

        Two threads submit the same sweep simultaneously.  Whatever the
        interleaving — coalesced onto the in-flight job, or a warm store hit
        if the first finished already — exactly ONE computation runs, and the
        fetched payloads are byte-identical to each other and to the direct
        library-path rendering.
        """
        store = default_store(tmp_path / "cache")
        body = tiny_sweep_body()
        with JobServer(port=0, workers=2, store=store) as server:
            client = ServiceClient(server.url)
            payloads = [None, None]

            def submit(slot):
                payloads[slot] = client.submit_and_wait(body, timeout=120.0)

            threads = [threading.Thread(target=submit, args=(slot,))
                       for slot in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            stats = client.stats()["service"]

        assert stats["executed"] == 1, "identical submissions must run once"
        assert stats["submitted"] == 2
        assert stats["coalesced"] + stats["store_hits"] == 1
        first, second = payloads
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        # Byte-identical to the direct (CLI-path) computation of the same spec.
        request = decode_request(body)
        direct = render_result(request, request.spec.run(store=default_store(
            tmp_path / "fresh")))
        assert json.dumps(first, sort_keys=True) == json.dumps(direct, sort_keys=True)

    def test_many_submissions_one_wall_time_entry(self, tmp_path):
        store = default_store(tmp_path / "cache")
        body = theorem_request("6.5", 3, 1)
        with JobServer(port=0, workers=2, store=store) as server:
            client = ServiceClient(server.url)
            receipts = [client.submit(body) for _ in range(5)]
            assert len({receipt["job"] for receipt in receipts}) == 1
            client.wait(receipts[0]["job"], timeout=120.0)
            stats = client.stats()["service"]
        assert stats["executed"] == 1 and stats["submitted"] == 5
        assert stats["coalesced"] + stats["store_hits"] == 4
        (entry,) = [job for job in stats["jobs"] if job["state"] == DONE]
        assert entry["submissions"] == 5 and entry["wall_time"] >= 0
