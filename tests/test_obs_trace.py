"""Tests for the span tracer (:mod:`repro.obs.trace`).

The contracts that matter:

* the record schema is **pinned** — the golden file committed when the schema
  was introduced must validate forever (bump ``SCHEMA_VERSION`` and add a new
  golden file to change it), and freshly written traces must carry exactly
  the pinned key sets;
* arbitrary JSON-safe attributes survive the emit → read round trip
  (hypothesis);
* spans nest via the thread-local stack, and an exception inside a span still
  pops the stack and records the error;
* disabled tracing is free: ``span()`` hands back the shared no-op singleton
  and no file is touched;
* spans from forked workers merge into the parent's trace file
  (``ParallelExecutor`` fan-out → one file, multiple pids).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import trace as obs_trace
from repro.protocols import MinProtocol

GOLDEN = Path(__file__).parent / "data" / "trace_golden.jsonl"


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled."""
    obs_trace.disable()
    yield
    obs_trace.disable()


class TestSchema:
    def test_golden_file_validates(self):
        """Old traces must stay readable: the schema is pinned by this file."""
        records = obs_trace.read_trace(GOLDEN)
        assert len(records) == 9
        assert sum(record["type"] == "meta" for record in records) == 2
        assert {record["pid"] for record in records} == {4242, 4243}

    def test_fresh_trace_has_exactly_the_pinned_keys(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs_trace.enable(path)
        with obs_trace.span("alpha", "cat", {"n": 3}):
            obs_trace.event("tick", "cat", {"k": 1})
        obs_trace.disable()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        meta, event, span = records
        assert set(meta) == set(obs_trace.META_KEYS)
        assert meta["version"] == obs_trace.SCHEMA_VERSION
        assert set(event) == set(obs_trace.SPAN_KEYS)
        assert set(span) == set(obs_trace.SPAN_KEYS)
        # Every line is sorted-keys JSON — the byte-level half of the pin.
        for line, record in zip(path.read_text().splitlines(), records):
            assert line == json.dumps(record, sort_keys=True)

    def test_validate_rejects_key_drift(self):
        records = obs_trace.read_trace(GOLDEN)
        span = next(r for r in records if r["type"] == "span")
        extra = dict(span, surprise=1)
        with pytest.raises(ValueError, match="unexpected"):
            obs_trace.validate_record(extra)
        missing = {k: v for k, v in span.items() if k != "dur"}
        with pytest.raises(ValueError, match="missing"):
            obs_trace.validate_record(missing)
        with pytest.raises(ValueError, match="version"):
            obs_trace.validate_record(
                {**next(r for r in records if r["type"] == "meta"),
                 "version": obs_trace.SCHEMA_VERSION + 1})

    @settings(max_examples=50, deadline=None)
    @given(name=st.text(min_size=1, max_size=30).filter(str.strip),
           cat=st.sampled_from(["", "build", "check", "exec", "service"]),
           attrs=st.dictionaries(
               st.text(min_size=1, max_size=10),
               st.one_of(st.integers(min_value=-10**9, max_value=10**9),
                         st.floats(allow_nan=False, allow_infinity=False,
                                   width=32),
                         st.booleans(), st.none(),
                         st.text(max_size=20)),
               max_size=5))
    def test_roundtrip_preserves_names_and_attrs(self, tmp_path_factory,
                                                 name, cat, attrs):
        path = tmp_path_factory.mktemp("trace") / "roundtrip.jsonl"
        obs_trace.enable(path)
        with obs_trace.span(name, cat, dict(attrs)):
            pass
        obs_trace.disable()
        records = obs_trace.read_trace(path)  # validates every line
        span = records[-1]
        assert span["name"] == name
        assert span["cat"] == cat
        assert span["attrs"] == attrs
        assert span["dur"] >= 0


class TestNesting:
    def test_parentage_follows_the_stack(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs_trace.enable(path)
        with obs_trace.span("outer"):
            with obs_trace.span("inner"):
                obs_trace.event("blip")
        with obs_trace.span("sibling"):
            pass
        obs_trace.disable()
        by_name = {record["name"]: record
                   for record in obs_trace.read_trace(path)
                   if record["type"] != "meta"}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer["parent"] is None
        assert inner["parent"] == outer["id"]
        assert by_name["blip"]["parent"] == inner["id"]
        assert by_name["sibling"]["parent"] is None

    def test_exception_pops_the_stack_and_marks_the_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs_trace.enable(path)
        with pytest.raises(RuntimeError):
            with obs_trace.span("doomed"):
                raise RuntimeError("boom")
        with obs_trace.span("after"):
            pass
        obs_trace.disable()
        by_name = {record["name"]: record
                   for record in obs_trace.read_trace(path)
                   if record["type"] == "span"}
        assert by_name["doomed"]["attrs"]["error"] == "RuntimeError"
        # The failed span did not leak a stale parent onto the stack.
        assert by_name["after"]["parent"] is None

    def test_complete_records_retroactively(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs_trace.enable(path)
        obs_trace.complete("late", 10.0, 12.5, "service", {"k": 1})
        obs_trace.complete("clamped", 20.0, 19.0)  # end < start clamps to 0
        obs_trace.disable()
        spans = {record["name"]: record
                 for record in obs_trace.read_trace(path)
                 if record["type"] == "span"}
        assert spans["late"]["ts"] == 10.0 and spans["late"]["dur"] == 2.5
        assert spans["clamped"]["dur"] == 0.0

    def test_traced_decorator(self, tmp_path):
        @obs_trace.traced(cat="demo")
        def work(x):
            return x * 2

        assert work(3) == 6  # disabled: plain call, nothing recorded
        path = tmp_path / "trace.jsonl"
        obs_trace.enable(path)
        assert work(4) == 8
        obs_trace.disable()
        spans = [record for record in obs_trace.read_trace(path)
                 if record["type"] == "span"]
        assert [span["name"] for span in spans] == [work.__qualname__]


class TestDisabledIsFree:
    def test_span_returns_the_shared_noop_singleton(self):
        assert not obs_trace.is_active()
        first = obs_trace.span("anything", "cat", {"ignored": True})
        second = obs_trace.span("other")
        assert first is obs_trace.NOOP
        assert second is obs_trace.NOOP
        with first as handle:
            handle.set("k", "v")  # no-ops, no state

    def test_event_and_complete_are_noops(self, tmp_path):
        obs_trace.event("nothing")
        obs_trace.complete("nothing", 0.0, 1.0)
        assert list(tmp_path.iterdir()) == []  # nothing wrote anywhere

    def test_disabled_span_overhead_is_small(self):
        """50k disabled span entries must be effectively instant — the
        guard is one global comparison plus the shared singleton."""
        import time
        start = time.perf_counter()
        for _ in range(50_000):
            if obs_trace.is_active():  # the hot-path guard idiom
                with obs_trace.span("hot", "x", {"i": 0}):
                    pass
            else:
                with obs_trace.span("hot"):
                    pass
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0  # generous CI bound; typical is ~20ms


#: Set before a pool forks; each worker's first ``act`` waits on it.
_FIRST_TASK_BARRIER = None
_waited_at_barrier = False


class BarrierMinProtocol(MinProtocol):
    """``P_min`` whose first ``act`` in each process waits for a second process.

    Two forked workers then each hold a task at once, so neither can drain
    the whole queue alone before the other starts.
    """

    def act(self, state):
        global _waited_at_barrier
        if _FIRST_TASK_BARRIER is not None and not _waited_at_barrier:
            _waited_at_barrier = True
            _FIRST_TASK_BARRIER.wait(timeout=30)
        return super().act(state)


class TestForkMerge:
    def test_parallel_executor_spans_merge_into_one_file(self, tmp_path, monkeypatch):
        """Forked pool workers inherit the tracer and append to the same
        file; the parent's trace ends up holding every process's spans."""
        from repro.api.executors import ParallelExecutor
        from repro.api.scans import fork_available

        if not fork_available():  # pragma: no cover - non-POSIX platforms
            pytest.skip("fork start method unavailable")
        from repro.failures import FailurePattern

        monkeypatch.setattr(sys.modules[__name__], "_FIRST_TASK_BARRIER",
                            multiprocessing.get_context("fork").Barrier(2))
        # A RunTask is the executors' plain tuple shape:
        # (protocol, n, preferences, pattern, horizon).
        tasks = [(BarrierMinProtocol(1), 3,
                  (bits >> 2 & 1, bits >> 1 & 1, bits & 1),
                  FailurePattern.failure_free(3), None)
                 for bits in range(8)]
        path = tmp_path / "trace.jsonl"
        obs_trace.enable(path)
        try:
            executor = ParallelExecutor(max_workers=2, chunksize=1)
            results = executor.run_tasks(tasks)
        finally:
            obs_trace.disable()
        assert len(results) == 8
        records = obs_trace.read_trace(path)  # every line schema-valid
        chunk_spans = [record for record in records
                       if record["type"] == "span"
                       and record["name"] == "exec.chunk"]
        assert len(chunk_spans) == 8  # chunksize=1: one span per task
        worker_pids = {span["pid"] for span in chunk_spans}
        assert os.getpid() not in worker_pids
        assert len(worker_pids) >= 2
        # Each writing process anchored itself with a meta line.
        meta_pids = {record["pid"] for record in records
                     if record["type"] == "meta"}
        assert worker_pids <= meta_pids
        map_span = next(record for record in records
                        if record["type"] == "span"
                        and record["name"] == "exec.map_chunks")
        assert map_span["pid"] == os.getpid()
        assert map_span["attrs"]["chunks"] == 8
