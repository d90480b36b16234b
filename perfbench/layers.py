"""Per-layer timing wrappers installed by the benchmark around each layer's entry points.

The program's own tracer (``repro.obs.trace``) stays off, so the code under
test is exactly what an untraced user runs; the traced run instead swaps each
layer's public entry point for a thin wrapper that pushes a frame on a
per-thread stack.  A frame's *self time* is its duration minus the durations
of the frames opened inside it on the same thread, so per-layer self times
partition every root frame exactly (:meth:`Recorder.check_roots`).

Frames are kept in memory while the workload runs and written out afterwards
as JSONL in the record shape ``repro.obs.trace`` pins (schema 1), so
``tools/trace_report.py`` reads the benchmark's traces like the program's.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Layers whose frames mean "real work happened below": a kbp or systems call
#: with one of these inside computed its result instead of reading the store.
WORK_LAYERS = frozenset({"simulation", "api", "logic"})

#: Every per-layer metric the traced run reports, with its unit.  Layers a
#: workload does not exercise report 0 (e.g. ``service.*`` on claims-n4).
LAYER_METRICS = {
    "failures.enumerate_s": "s", "failures.patterns": "count",
    "simulation.simulate_s": "s", "simulation.runs": "count",
    "systems.build_s": "s", "systems.points": "count", "systems.classes": "count",
    "logic.eval_s": "s", "logic.evals": "count",
    "kbp.implements_s": "s", "kbp.safety_s": "s",
    "kbp.states_checked": "count", "kbp.clause_checks": "count",
    "api.batches_s": "s", "api.scan_s": "s",
    "store.key_s": "s", "store.get_s": "s", "store.put_s": "s",
    "store.gets": "count", "store.hit_ratio": "ratio", "store.bytes_put": "bytes",
    "service.submit_s": "s", "service.queue_wait_s": "s", "service.execute_s": "s",
    "service.client_s": "s", "service.executed": "count",
    "service.coalesced": "count", "service.hits": "count",
    "trace.overhead_ratio": "ratio", "trace.unattributed_s": "s", "trace.wall_s": "s",
}

#: The count metrics: they must repeat exactly for the same code and seed.
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS.items()
                      if unit in ("count", "bytes"))


class Frame:
    """One open interval on a thread's stack."""

    __slots__ = ("metric", "name", "start", "child", "id", "parent", "root",
                 "breakdown", "worked", "attrs")

    def __init__(self, metric: str, name: str, parent: Optional["Frame"],
                 span_id: int) -> None:
        self.metric = metric
        self.name = name
        self.child = 0.0
        self.id = span_id
        self.parent = parent
        self.root = parent.root if parent is not None else self
        self.breakdown: Optional[Dict[str, float]] = None if parent is not None else {}
        self.worked = False
        self.attrs: Optional[Dict[str, Any]] = None
        self.start = time.monotonic()


class Recorder:
    """Per-thread frame stacks, per-layer self times, counts, and finished spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: (name, metric, ts, dur, self, tid, id, parent id, attrs)
        self.spans: List[tuple] = []
        #: Finished root frames: (name, metric, start, end, breakdown, attrs).
        self.roots: List[tuple] = []

    def _stack(self) -> List[Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def push(self, metric: str, name: str) -> Frame:
        stack = self._stack()
        frame = Frame(metric, name, stack[-1] if stack else None, next(self._ids))
        if metric[:metric.index(".")] in WORK_LAYERS:
            for outer in stack:
                outer.worked = True
        stack.append(frame)
        return frame

    def pop(self, frame: Frame) -> float:
        """Close ``frame``; returns its duration."""
        end = time.monotonic()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"frame {frame.name} closed out of order")
        stack.pop()
        duration = end - frame.start
        own = duration - frame.child
        parent = frame.parent
        if parent is not None:
            parent.child += duration
        with self._lock:
            self.self_s[frame.metric] += own
            root = frame.root
            root.breakdown[frame.metric] = root.breakdown.get(frame.metric, 0.0) + own
            self.spans.append((frame.name, frame.metric, frame.start, duration, own,
                               threading.get_ident(), frame.id,
                               parent.id if parent is not None else None, frame.attrs))
            if parent is None:
                self.roots.append((frame.name, frame.metric, frame.start, end,
                                   dict(root.breakdown), frame.attrs))
        return duration

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def add_span(self, name: str, metric: str, start: float, end: float,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        """Record an interval no thread was busy in (e.g. a job's queue wait)."""
        duration = max(0.0, end - start)
        with self._lock:
            self.spans.append((name, metric, start, duration, duration, 0,
                               next(self._ids), None, attrs))

    def check_roots(self, tolerance: float = 1e-6) -> None:
        """Every root's per-layer self times must add up to its duration."""
        for name, _metric, start, end, breakdown, _attrs in self.roots:
            total = sum(breakdown.values())
            if abs(total - (end - start)) > tolerance * (1 + len(breakdown)):
                raise AssertionError(
                    f"self times under {name} sum to {total:.6f}s, "
                    f"not its duration {end - start:.6f}s")
            negative = [metric for metric, value in breakdown.items() if value < -tolerance]
            if negative:
                raise AssertionError(f"negative self time under {name}: {negative}")

    def write_jsonl(self, path: Path, validate: Callable[[dict], None]) -> int:
        """Write every span as a schema-1 ``repro.obs.trace`` record; returns the count."""
        pid = os.getpid()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            meta = {"type": "meta", "version": 1, "pid": pid,
                    "tid": threading.get_ident(), "unix_ts": time.time(),
                    "monotonic_ts": time.monotonic()}
            validate(meta)
            handle.write(json.dumps(meta, sort_keys=True) + "\n")
            for name, metric, ts, dur, own, tid, span_id, parent, attrs in self.spans:
                record = {"type": "span", "name": name, "cat": metric.split(".", 1)[0],
                          "ts": round(ts, 7), "dur": round(dur, 7), "pid": pid,
                          "tid": tid, "id": span_id, "parent": parent,
                          "attrs": {"metric": metric, "self": round(own, 7),
                                    **(attrs or {})}}
                validate(record)
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(self.spans) + 1


class _TimedIterator:
    """Times each ``next()`` of a lazy pattern enumeration as a failures frame."""

    __slots__ = ("_recorder", "_inner")

    def __init__(self, recorder: Recorder, inner) -> None:
        self._recorder = recorder
        self._inner = inner

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        frame = self._recorder.push("failures.enumerate_s", "failures.enumerate")
        try:
            item = next(self._inner)
        finally:
            self._recorder.pop(frame)
        self._recorder.count("failures.patterns")
        return item


class Patches:
    """The installed wrappers, so :meth:`restore` can put every original back."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def set(self, owner: Any, attribute: str, value: Any) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def everywhere(self, original: Callable, wrapper: Callable) -> None:
        """Rebind ``original`` in every loaded ``repro`` module that imported it by name."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attribute, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, value = self._saved.pop()
            setattr(owner, attribute, value)


def _timed(recorder: Recorder, metric: str, name: str, function: Callable,
           after: Optional[Callable] = None) -> Callable:
    def wrapper(*args, **kwargs):
        frame = recorder.push(metric, name)
        try:
            result = function(*args, **kwargs)
            if after is not None:
                # Inside the frame: a root's attrs must be set before it closes.
                after(frame, args, result)
            return result
        finally:
            recorder.pop(frame)
    wrapper.__wrapped__ = function
    return wrapper


def install(recorder: Recorder) -> Patches:
    """Wrap every layer's public entry points; returns the handle that undoes it."""
    from repro.api import executors, scans
    from repro.failures import models
    from repro.kbp import implementation, safety
    from repro.logic.semantics import ModelChecker
    from repro.service import server, workers
    from repro.simulation.batch import BatchSimulator
    from repro.store import caching
    from repro.store.store import ArtifactStore
    from repro.systems import interpreted

    patches = Patches()
    count = recorder.count

    for cls in vars(models).values():
        if isinstance(cls, type) and "enumerate" in cls.__dict__:
            def enumerate_wrapper(self, *args, _original=cls.__dict__["enumerate"], **kwargs):
                return _TimedIterator(recorder, iter(_original(self, *args, **kwargs)))
            patches.set(cls, "enumerate", enumerate_wrapper)

    def after_simulate(frame, args, runs):
        count("simulation.runs", len(runs))

    for attribute in ("simulate_patterns", "partitions"):
        patches.set(BatchSimulator, attribute, _timed(
            recorder, "simulation.simulate_s", f"simulation.{attribute}",
            BatchSimulator.__dict__[attribute]))
    patches.set(BatchSimulator, "simulate_scenarios", _timed(
        recorder, "simulation.simulate_s", "simulation.simulate_scenarios",
        BatchSimulator.__dict__["simulate_scenarios"], after_simulate))

    def after_build(frame, args, system):
        if frame.worked:
            count("systems.points", system.num_points)
            count("systems.classes", sum(len(system.partition(agent).class_states)
                                         for agent in range(system.n)))
    patches.everywhere(interpreted.build_system, _timed(
        recorder, "systems.build_s", "systems.build_system",
        interpreted.build_system, after_build))

    def after_eval(frame, args, words):
        count("logic.evals")
    patches.set(ModelChecker, "satisfying_words", _timed(
        recorder, "logic.eval_s", "logic.satisfying_words",
        ModelChecker.__dict__["satisfying_words"], after_eval))

    def after_implements(frame, args, report):
        if frame.worked:
            count("kbp.states_checked", report.checked_states)

    def after_safety(frame, args, report):
        if frame.worked:
            count("kbp.clause_checks", report.clause1_checks + report.clause2_checks)
    patches.everywhere(implementation.check_implements, _timed(
        recorder, "kbp.implements_s", "kbp.check_implements",
        implementation.check_implements, after_implements))
    patches.everywhere(safety.check_safety, _timed(
        recorder, "kbp.safety_s", "kbp.check_safety", safety.check_safety, after_safety))

    patches.set(executors.ParallelExecutor, "run_batches", _timed(
        recorder, "api.batches_s", "api.run_batches",
        executors.ParallelExecutor.__dict__["run_batches"]))
    patches.everywhere(scans.scan_runs, _timed(
        recorder, "api.scan_s", "api.scan_runs", scans.scan_runs))

    for key_function in (caching.system_key, caching.implementation_report_key,
                         caching.safety_report_key, caching.run_task_key,
                         caching.sweep_key):
        patches.everywhere(key_function, _timed(
            recorder, "store.key_s", f"store.{key_function.__name__}", key_function))

    def after_get(frame, args, artifact):
        count("store.gets")
        if artifact is not None:
            count("store.hits")
    patches.set(ArtifactStore, "get", _timed(
        recorder, "store.get_s", "store.get", ArtifactStore.__dict__["get"], after_get))
    patches.set(ArtifactStore, "put", _timed(
        recorder, "store.put_s", "store.put", ArtifactStore.__dict__["put"]))

    def after_submit(frame, args, receipt):
        frame.attrs = {"job": receipt["job"]}
    patches.set(server.JobServer, "submit", _timed(
        recorder, "service.submit_s", "service.submit",
        server.JobServer.__dict__["submit"], after_submit))

    original_execute = workers.execute_request

    def execute_wrapper(request, *args, **kwargs):
        frame = recorder.push("service.execute_s", "service.execute_request")
        frame.attrs = {"job": request.key}
        try:
            return original_execute(request, *args, **kwargs)
        finally:
            recorder.pop(frame)
    patches.set(workers, "execute_request", execute_wrapper)
    return patches


def layer_metrics(recorder: Recorder) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, before workload-specific fields."""
    metrics: Dict[str, float] = {name: 0 for name in LAYER_METRICS}
    for metric, value in recorder.self_s.items():
        if metric in metrics:
            metrics[metric] = value
    for name, value in recorder.counts.items():
        if name in metrics:
            metrics[name] = value
    gets = recorder.counts.get("store.gets", 0)
    metrics["store.hit_ratio"] = recorder.counts.get("store.hits", 0) / gets if gets else 0
    return metrics
