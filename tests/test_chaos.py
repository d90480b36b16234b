"""Chaos tests: the fault-injection harness driving the robustness layer.

Three escalating blast radii:

* **store chaos** — a :class:`~repro.testing.FaultyBackend` erroring,
  corrupting, and stalling under a real sweep: results stay identical to the
  uncached computation, the degradation is counted, and exactly one warning
  is emitted;
* **execution chaos** — an injected store fault is one the service retries
  (a pool worker dying mid-sweep is pinned by
  ``tests/test_api_executors.py::TestPoolRebuild``);
* **process chaos** — the crash-recovery acceptance test: ``kill -9`` of a
  journaled ``repro-eba serve`` mid-sweep, then a restarted server on the
  same journal re-serves the finished job byte-identically (no
  recomputation) and re-runs the in-flight one to completion.
"""

from __future__ import annotations

import json
import logging
import time
from pathlib import Path

import pytest

from repro.api import Sweep
from repro.protocols import MinProtocol
from repro.service import ServiceClient, run_request, sweep_request
from repro.store import ArtifactStore
from repro.store.backends import MemoryBackend
from repro.testing import (
    FaultPlan,
    FaultyBackend,
    InjectedFault,
    ServerHarness,
)

ROOT = Path(__file__).resolve().parent.parent


def tiny_spec(count=6, seed=5):
    return Sweep.of(MinProtocol(1)).on_random(4, 1, count=count, seed=seed).build()


def wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ------------------------------------------------------------------ store chaos


class TestStoreChaos:
    def test_dead_backend_degrades_to_uncached_with_one_warning(self, caplog):
        plan = FaultPlan(error_ops=("get", "put", "contains"))
        backend = FaultyBackend(MemoryBackend(), plan)
        store = ArtifactStore(backend)
        spec = tiny_spec()
        baseline = spec.run()  # no store at all
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            chaotic = spec.run(store=store)
            assert chaotic == baseline
            assert any("degrading to uncached" in record.message
                       for record in caplog.records)
            stats = store.stats()
            assert stats.io_errors > 0
            assert stats.puts == 0  # nothing persisted through a dead backend
            # A second chaotic run stays silent (one warning per store) and
            # still computes the right answer.
            caplog.clear()
            assert spec.run(store=store) == baseline
            assert not caplog.records

    def test_backend_recovers_after_transient_faults(self):
        plan = FaultPlan(error_ops=("get", "put"), fail_count=1)
        backend = FaultyBackend(MemoryBackend(), plan)
        store = ArtifactStore(backend)
        assert store.get("missing") is None  # injected fault -> miss
        store.put("k", {"v": 1})             # injected fault -> skipped
        store._memory.clear()  # drop the memory layer: force backend reads
        store.put("k", {"v": 1})                 # backend healthy again
        store._memory.clear()
        assert store.get("k") == {"v": 1}
        assert store.stats().io_errors == 2

    def test_corrupted_payloads_read_as_misses(self):
        plan = FaultPlan(corrupt_gets=1)
        backend = FaultyBackend(MemoryBackend(), plan)
        store = ArtifactStore(backend, memory_entries=0)
        store.put("k", {"v": 1})
        assert store.get("k") is None  # corrupted -> miss (and deleted)
        stats = store.stats()
        assert stats.corrupted == 1 and stats.io_errors == 0
        # The entry is gone; a re-put re-establishes it.
        store.put("k", {"v": 1})
        assert store.get("k") == {"v": 1}

    def test_latency_injection_does_not_change_results(self):
        backend = FaultyBackend(MemoryBackend(), FaultPlan(latency=0.001))
        store = ArtifactStore(backend)
        spec = tiny_spec(count=3)
        assert spec.run(store=store) == spec.run()
        assert backend.calls["put"] > 0  # the slow path really ran

    def test_fault_plan_validates(self):
        with pytest.raises(ValueError, match="unknown backend operation"):
            FaultPlan(error_ops=("frobnicate",))
        with pytest.raises(ValueError, match="exclusive"):
            FaultPlan(error_ops=("get",), corrupt_gets=1)


# ------------------------------------------------------------------ execution chaos


class TestExecutionChaos:
    def test_injected_fault_is_retryable_via_the_service(self):
        assert issubclass(InjectedFault, OSError)
        from repro.service.workers import RETRYABLE_EXCEPTIONS
        assert isinstance(InjectedFault("x"), RETRYABLE_EXCEPTIONS)


# ------------------------------------------------------------------ process chaos


class TestKillAndRestart:
    def test_kill9_midsweep_then_restart_recovers(self, tmp_path):
        """The crash-recovery acceptance test, through real processes.

        ``kill -9`` leaves no shutdown path at all: everything the second
        server knows, it knows from the journal.
        """
        journal = tmp_path / "journal.jsonl"
        cache = tmp_path / "cache"
        harness = ServerHarness(
            ROOT, workers=1,
            extra_args=["--journal", str(journal), "--cache-dir", str(cache)])
        quick = run_request("min", 1, 3, [1, 0, 1])
        # TestSigterm's body at a shorter horizon: ~600 rounds of ~1.2 ms,
        # so the sweep outlives the kill that lands once it is running.
        slow = sweep_request([("min", 1), ("basic", 1)],
                             workload={"n": 6, "t": 1, "count": 40, "seed": 7},
                             horizon=300)
        with harness:
            url = harness.start()
            client = ServiceClient(url, retries=5, backoff=0.1)
            payload_before = client.submit_and_wait(quick, timeout=120.0)
            quick_id = client.submit(quick)["job"]
            sweep_id = client.submit(slow)["job"]
            assert wait_for(lambda: client.status(sweep_id)["state"]
                            == "running")
            harness.kill()  # SIGKILL: a crash, not a shutdown

            url2 = harness.start()
            client2 = ServiceClient(url2, retries=5, backoff=0.1)
            recovered = client2.stats()["service"]["recovered"]
            assert recovered["done"] >= 1       # the finished quick job
            assert recovered["requeued"] == 1   # the mid-flight sweep

            # The finished job is re-served byte-identically, from the
            # journal, without re-executing anything.
            status = client2.status(quick_id)
            assert status["state"] == "done" and status.get("recovered") is True
            payload_after = client2.submit_and_wait(quick, timeout=120.0)
            assert (json.dumps(payload_after, sort_keys=True)
                    == json.dumps(payload_before, sort_keys=True))

            # The in-flight sweep was re-enqueued and completes for real.
            sweep_payload = client2.wait(sweep_id, timeout=300.0)
            assert sweep_payload["kind"] == "sweep"
            stats = client2.stats()["service"]
            assert stats["executed"] == 1  # the sweep; the quick job never re-ran
