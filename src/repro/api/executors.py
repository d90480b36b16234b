"""Pluggable execution backends for run specs.

An :class:`Executor` turns a sequence of *run tasks* — ``(protocol, n,
preferences, pattern, horizon)`` tuples, the pure-data description of one run —
into the corresponding sequence of :class:`~repro.simulation.trace.RunTrace`
objects, **in the same order**.  That ordering contract is what lets
:meth:`repro.api.specs.SweepSpec.run` produce identical
:class:`~repro.api.results.ResultSet` contents on every backend: the executor
only decides *where* runs execute, never what the result looks like.  Either
way the runs come from the batched engine,
:func:`~repro.simulation.batch.simulate_tasks`.

Two backends are provided:

* :class:`SerialExecutor` — runs everything in-process; the default.
* :class:`ParallelExecutor` — fans contiguous task chunks out over a
  :class:`concurrent.futures.ProcessPoolExecutor`; each chunk is one
  ``simulate_tasks`` call in a worker.

Only the run API — :meth:`~repro.api.specs.RunSpec.run`,
:meth:`~repro.api.specs.SweepSpec.run` and :meth:`~repro.api.specs.Sweep.run`
— takes an executor.  Every layer above it (experiments, analysis, the
service, the CLI) runs in-process: the batched engine shares transitions
across the runs of one process, and a pool splits that sharing, so on the
CLI's experiments and the service's sweeps the pool was slower than serial
(docs/performance.md, "Where runs execute").

System construction (:func:`repro.systems.interpreted.build_system`) always
runs in-process through one :class:`~repro.simulation.batch.BatchSimulator`
and takes no executor.  Cancellation is the cancel scope's
(:mod:`repro.core.cancel`), never the executor's.

Tasks and traces cross process boundaries by pickling, which every protocol,
failure pattern, and trace in the library supports (they are plain dataclasses
and plain classes).
"""

from __future__ import annotations

import os
from typing import List, Optional, Protocol, Sequence, runtime_checkable

from ..core.cancel import checkpoint
from ..core.errors import ConfigurationError
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs.bus import BUS, ProgressReporter
from ..simulation.batch import RunTask, simulate_tasks
from ..simulation.trace import RunTrace

_POOL_REBUILDS = _metrics.counter(
    "repro_pool_rebuilds_total",
    "Broken process pools rebuilt mid-sweep by ParallelExecutor")


def _execute_task_chunk(tasks: Sequence[RunTask]) -> List[RunTrace]:
    """One pool work item: a contiguous chunk of run tasks, in order.

    Module-level so process-pool workers can import it by qualified name.
    Runs worker-side: the span (when tracing is on — fork children inherit
    the enabled tracer) lands in the same trace file as the parent's, under
    the child's pid.
    """
    if not _trace.is_active():
        return simulate_tasks(tasks)
    with _trace.span("exec.chunk", "exec", {"tasks": len(tasks)}):
        return simulate_tasks(tasks)


@runtime_checkable
class Executor(Protocol):
    """The execution-backend interface.

    Implementations must return exactly one trace per task, in task order.
    """

    def run_tasks(self, tasks: Sequence[RunTask]) -> List[RunTrace]:  # pragma: no cover
        ...


class SerialExecutor:
    """Run every task in the calling process."""

    def run_tasks(self, tasks: Sequence[RunTask]) -> List[RunTrace]:
        return simulate_tasks(tasks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialExecutor()"


class ParallelExecutor:
    """Fan tasks out over a process pool, preserving task order.

    Parameters
    ----------
    max_workers:
        Worker-process count; defaults to ``os.cpu_count()``.
    chunksize:
        How many tasks each worker picks up at a time.  Defaults to a heuristic
        (roughly ``len(tasks) / (4 * max_workers)``, at least 1) that amortises
        pickling overhead on large sweeps.
    pool_retries:
        How many times a **dead process pool** is rebuilt before giving up.
        A worker process dying (OOM kill, segfault, a crashing task) breaks
        the whole ``ProcessPoolExecutor``; instead of aborting the sweep, the
        executor rebuilds the pool and resubmits only the chunks that never
        finished — completed chunks keep their results, so nothing is
        recomputed and the output stays byte-identical to a serial run.

    Determinism
    -----------
    Chunks are indexed by position and their results reassembled in
    submission order regardless of which worker (or which pool incarnation)
    finishes first, and every simulation run is itself a pure function of its
    task, so the returned traces are identical to :class:`SerialExecutor`'s
    for any workload, any worker count, and any number of pool rebuilds.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 chunksize: Optional[int] = None,
                 pool_retries: int = 2) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        if chunksize is not None and chunksize < 1:
            raise ConfigurationError(f"chunksize must be >= 1, got {chunksize}")
        if pool_retries < 0:
            raise ConfigurationError(f"pool_retries must be non-negative, got {pool_retries}")
        self.max_workers = max_workers
        self.chunksize = chunksize
        self.pool_retries = pool_retries

    def _map_chunks(self, function, chunks: List[list], workers: int) -> List[list]:
        """Run ``function`` over every chunk, surviving pool death.

        Submits each chunk as its own future (so a broken pool loses only the
        chunks that had not completed), collects results by chunk index, and
        on :class:`~concurrent.futures.process.BrokenProcessPool` rebuilds the
        pool for the unfinished remainder — up to ``pool_retries`` rebuilds.
        A chunk raising an ordinary exception propagates unchanged: task
        errors are real errors, only pool death is retried.  The parent polls
        the cancel scope as each chunk completes (forked workers never see a
        flag flip) and, if it raises, cancels the chunks not yet started.
        """
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        fanout_span = _trace.NOOP
        if _trace.is_active():
            fanout_span = _trace.span("exec.map_chunks", "exec",
                                      {"chunks": len(chunks),
                                       "workers": workers})
        reporter = None
        if BUS.has_subscribers("progress"):
            reporter = ProgressReporter("parallel", total=len(chunks),
                                        unit="chunks")
        with fanout_span as span:
            results: List[Optional[list]] = [None] * len(chunks)
            pending = list(range(len(chunks)))
            rebuilds = 0
            while pending:
                with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
                    futures = {pool.submit(function, chunks[index]): index
                               for index in pending}
                    for future in as_completed(futures):
                        index = futures[future]
                        try:
                            results[index] = future.result()
                            if reporter is not None:
                                reporter.advance()
                        except BrokenProcessPool:
                            # The pool marks every unfinished future with this
                            # error; keep draining so completed chunks are kept.
                            pass
                        try:
                            checkpoint()
                        except BaseException:
                            pool.shutdown(wait=False, cancel_futures=True)
                            raise
                pending = [index for index in pending if results[index] is None]
                if pending:
                    rebuilds += 1
                    _POOL_REBUILDS.inc()
                    _trace.event("exec.pool_rebuild", "exec",
                                 {"pending": len(pending)})
                    BUS.emit("pool.rebuild", pending=len(pending))
                    if rebuilds > self.pool_retries:
                        raise BrokenProcessPool(
                            f"process pool died {rebuilds} time(s) with "
                            f"{len(pending)} chunk(s) unfinished; giving up "
                            f"(pool_retries={self.pool_retries})")
            if rebuilds:
                span.set("rebuilds", rebuilds)
            return results  # type: ignore[return-value]  # every slot filled

    def run_tasks(self, tasks: Sequence[RunTask]) -> List[RunTrace]:
        tasks = list(tasks)
        workers = min(self.max_workers or os.cpu_count() or 1, max(1, len(tasks)))
        if workers == 1 or len(tasks) <= 1:
            # Nothing to parallelise: skip the pool (and its fork/pickle cost).
            return simulate_tasks(tasks)
        chunksize = self.chunksize
        if chunksize is None:
            chunksize = max(1, len(tasks) // (4 * workers))
        chunks = [list(tasks[start:start + chunksize])
                  for start in range(0, len(tasks), chunksize)]
        traces: List[RunTrace] = []
        for chunk_traces in self._map_chunks(_execute_task_chunk, chunks, workers):
            traces.extend(chunk_traces)
        return traces

    def run_batches(self, batches: Sequence[tuple]) -> List[RunTrace]:
        """Run ``(protocol, n, preference_vectors, patterns, horizon)`` batches, pattern-major."""
        return self.run_tasks([(protocol, n, preferences, pattern, horizon)
                               for protocol, n, preference_vectors, patterns, horizon in batches
                               for pattern in patterns for preferences in preference_vectors])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ParallelExecutor(max_workers={self.max_workers}, "
                f"chunksize={self.chunksize}, pool_retries={self.pool_retries})")


def resolve_executor(executor: Optional[Executor]) -> Executor:
    """Default-resolve an executor argument (``None`` → :class:`SerialExecutor`)."""
    if executor is None:
        return SerialExecutor()
    if not isinstance(executor, Executor):
        raise ConfigurationError(
            f"{executor!r} is not an Executor (needs a run_tasks(tasks) method)"
        )
    return executor

