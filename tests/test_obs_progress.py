"""Tests for the observer bus and progress reporting (:mod:`repro.obs.bus`).

It also pins that ``SweepSpec.run`` emits ``sweep.resume`` on the bus for
partial cache resumes.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.bus import BUS, EventBus, ProgressReporter
from repro.obs.metrics import REGISTRY


# ------------------------------------------------------------------ event bus


class TestEventBus:
    def test_emit_delivers_kind_and_thread(self):
        bus = EventBus()
        seen = []
        bus.subscribe("demo", seen.append)
        delivered = bus.emit("demo", value=7)
        assert delivered == 1
        (event,) = seen
        assert event["value"] == 7
        assert event["kind"] == "demo"
        assert event["thread"] == threading.get_ident()

    def test_emit_without_subscribers_is_a_cheap_noop(self):
        bus = EventBus()
        assert not bus.has_subscribers("demo")
        assert bus.emit("demo", value=1) == 0

    def test_subscribe_returns_the_callback_for_unsubscribe(self):
        bus = EventBus()
        seen = []

        def record(event):
            seen.append(event)

        handle = bus.subscribe("demo", record)
        assert handle is record
        assert bus.has_subscribers("demo")
        bus.unsubscribe("demo", handle)
        assert not bus.has_subscribers("demo")
        assert bus.emit("demo") == 0 and seen == []
        # Unsubscribing something never subscribed is ignored.
        bus.unsubscribe("demo", record)
        bus.unsubscribe("never", record)

    def test_kinds_are_independent(self):
        bus = EventBus()
        alpha, beta = [], []
        bus.subscribe("alpha", alpha.append)
        bus.subscribe("beta", beta.append)
        bus.emit("alpha")
        assert len(alpha) == 1 and beta == []

    def test_raising_callback_is_counted_and_skipped(self):
        bus = EventBus()
        errors = REGISTRY.counter("repro_obs_callback_errors_total")
        before = errors.value
        seen = []

        def boom(event):
            raise RuntimeError("observer bug")

        bus.subscribe("demo", boom)
        bus.subscribe("demo", seen.append)
        delivered = bus.emit("demo", value=1)  # must not raise
        assert delivered == 2
        assert len(seen) == 1  # the healthy subscriber still ran
        assert errors.value == before + 1


# ------------------------------------------------------------------ progress


class TestProgressReporter:
    def test_silent_when_nobody_subscribed(self):
        bus = EventBus()
        reporter = ProgressReporter("phase", total=3, bus=bus)
        reporter.advance(3)
        reporter.finish()  # nothing to assert beyond "does not blow up"

    def test_throttles_to_min_interval(self):
        bus = EventBus()
        seen = []
        bus.subscribe("progress", seen.append)
        reporter = ProgressReporter("scan", total=1000, unit="runs",
                                    min_interval=10.0, bus=bus)
        for _ in range(50):
            reporter.advance()
        assert len(seen) == 1  # the first advance; the rest were throttled
        assert seen[0]["phase"] == "scan"
        assert seen[0]["unit"] == "runs"
        assert seen[0]["total"] == 1000

    def test_completion_bypasses_the_throttle(self):
        bus = EventBus()
        seen = []
        bus.subscribe("progress", seen.append)
        reporter = ProgressReporter("scan", total=3, min_interval=10.0, bus=bus)
        reporter.advance()      # emits (first event)
        reporter.advance()      # throttled
        reporter.advance()      # done == total: final, bypasses throttle
        assert [event["done"] for event in seen] == [1, 3]
        assert seen[-1]["eta"] is None  # nothing left to estimate

    def test_finish_always_emits(self):
        bus = EventBus()
        seen = []
        bus.subscribe("progress", seen.append)
        reporter = ProgressReporter("load", min_interval=10.0, bus=bus)
        reporter.update(5)
        reporter.finish()
        assert [event["done"] for event in seen] == [5, 5]
        assert seen[-1]["total"] is None  # open-ended phase

    def test_eta_extrapolates_from_the_rate(self):
        bus = EventBus()
        seen = []
        bus.subscribe("progress", seen.append)
        reporter = ProgressReporter("scan", total=4, min_interval=0.0, bus=bus)
        reporter._started -= 1.0  # pretend one second already elapsed
        reporter.advance()  # 1 of 4 after ~1s -> ~3s to go
        event = seen[-1]
        assert event["elapsed"] == pytest.approx(1.0, abs=0.25)
        assert event["eta"] == pytest.approx(3.0, rel=0.3)

    def test_events_flow_through_the_global_bus_by_default(self):
        seen = []
        BUS.subscribe("progress", seen.append)
        try:
            reporter = ProgressReporter("global", total=1, min_interval=0.0)
            reporter.advance()
        finally:
            BUS.unsubscribe("progress", seen.append)
        assert seen and seen[-1]["phase"] == "global"


# ------------------------------------------------------------ sweep resume


class TestSweepResumeEvent:
    def test_sweep_resume_event_reaches_bus(self, tmp_path):
        from repro.api import Sweep
        from repro.failures import FailurePattern
        from repro.protocols import MinProtocol
        from repro.simulation import simulate_tasks
        from repro.store import default_store, run_task_key

        pattern = FailurePattern.failure_free(3)
        scenarios = [(tuple(int(bit) for bit in f"{index:03b}"), pattern)
                     for index in range(4)]
        spec = Sweep.of(MinProtocol(1)).on(scenarios, n=3).build()
        store = default_store(tmp_path / "cache")
        # Simulate an interrupted sweep: one of four runs already cached.
        task = spec.tasks()[0]
        store.put(run_task_key(task), simulate_tasks([task])[0], kind="run")

        bus_events = []
        BUS.subscribe("sweep.resume", bus_events.append)
        try:
            spec.run(store=store)
        finally:
            BUS.unsubscribe("sweep.resume", bus_events.append)

        (event,) = bus_events
        assert event["kind"] == "sweep.resume"
        assert event["remaining"] == 3 and event["total"] == 4
        assert event["spec"] is spec

    def test_no_event_on_cold_or_fully_warm_store(self, tmp_path):
        from repro.api import Sweep
        from repro.failures import FailurePattern
        from repro.protocols import MinProtocol
        from repro.store import default_store

        pattern = FailurePattern.failure_free(3)
        scenarios = [(tuple(int(bit) for bit in f"{index:03b}"), pattern)
                     for index in range(3)]
        spec = Sweep.of(MinProtocol(1)).on(scenarios, n=3).build()
        store = default_store(tmp_path / "cache")
        events = []
        BUS.subscribe("sweep.resume", events.append)
        try:
            spec.run(store=store)   # cold: everything missing, no "resume"
            spec.run(store=store)   # warm: sweep-level hit, no resume either
        finally:
            BUS.unsubscribe("sweep.resume", events.append)
        assert events == []
