"""``repro.api`` — the unified experiment-orchestration layer.

This package is the single way runs are specified and executed.  It separates
three concerns:

* **What to run** — :class:`RunSpec` and :class:`SweepSpec`, frozen declarative
  descriptions of runs (protocols, system size, workload, horizon, seed),
  built directly or through the fluent :class:`Sweep` builder;
* **How to run it** — the :class:`Executor` backends: :class:`SerialExecutor`
  (in-process) and :class:`ParallelExecutor` (process pool), both honouring
  the same deterministic task→trace ordering, optionally wrapped by the
  content-addressed artifact cache (``store=`` on every ``run`` method /
  :class:`~repro.store.CachingExecutor`, see :mod:`repro.store`);
* **What comes back** — :class:`ResultSet`, which plugs into the analysis
  (:meth:`~ResultSet.compare`, :meth:`~ResultSet.pairwise`), specification
  (:meth:`~ResultSet.check_eba`), and reporting (:meth:`~ResultSet.table`)
  layers, and can be viewed as one ``BatchResult`` per protocol or as a
  name→trace dict per scenario.

Typical usage::

    from repro.api import ParallelExecutor, Sweep
    from repro.protocols import MinProtocol, OptimalFipProtocol
    from repro.workloads import random_scenarios

    results = (Sweep.of(MinProtocol(t=2), OptimalFipProtocol(t=2))
               .on(random_scenarios(n=7, t=2, count=500))
               .with_horizon(5)
               .run(ParallelExecutor()))
    print(results.compare("P_opt", "P_min").summary())
"""

from typing import Dict, Iterable, Optional, Sequence

from ..failures.pattern import FailurePattern
from ..protocols.base import ActionProtocol
from ..simulation.trace import RunTrace
from ..store import ArtifactStore, CachingExecutor, StoreLike, default_store, resolve_store
from .executors import (
    Executor,
    ParallelExecutor,
    RunTask,
    SerialExecutor,
    execute_task,
    executor_from_flags,
    resolve_executor,
)
from .results import ResultSet
from .specs import RunSpec, Scenario, Sweep, SweepSpec

__all__ = [
    "ArtifactStore",
    "CachingExecutor",
    "Executor",
    "ParallelExecutor",
    "ResultSet",
    "RunSpec",
    "RunTask",
    "Scenario",
    "SerialExecutor",
    "StoreLike",
    "Sweep",
    "SweepSpec",
    "corresponding",
    "default_store",
    "execute_task",
    "executor_from_flags",
    "resolve_executor",
    "resolve_store",
    "run",
    "run_sweep",
]


def run(protocol: ActionProtocol, n: int, preferences: Sequence[int],
        pattern: Optional[FailurePattern] = None,
        horizon: Optional[int] = None,
        executor: Optional[Executor] = None,
        store: StoreLike = None) -> RunTrace:
    """Execute a single run (shorthand for ``RunSpec(...).run(executor, store)``)."""
    return RunSpec(protocol=protocol, n=n, preferences=tuple(preferences),
                   pattern=pattern, horizon=horizon).run(executor, store=store)


def run_sweep(protocols: Sequence[ActionProtocol], scenarios: Iterable[Scenario],
              n: Optional[int] = None, horizon: Optional[int] = None,
              executor: Optional[Executor] = None,
              store: StoreLike = None) -> ResultSet:
    """Execute a sweep (shorthand for ``Sweep.of(*protocols).on(...).run(executor, store)``)."""
    return Sweep.of(*protocols).on(scenarios, n=n).with_horizon(horizon).run(
        executor, store=store)


def corresponding(protocols: Sequence[ActionProtocol], n: int,
                  preferences: Sequence[int], pattern: FailurePattern,
                  horizon: Optional[int] = None,
                  executor: Optional[Executor] = None,
                  store: StoreLike = None) -> Dict[str, RunTrace]:
    """Run several protocols on one initial global state; map name → trace."""
    results = run_sweep(protocols, [(tuple(preferences), pattern)], n=n,
                        horizon=horizon, executor=executor, store=store)
    return results.corresponding(0)
