"""``repro.api`` — the unified experiment-orchestration layer.

This package is the single way runs are specified and executed.  It separates
three concerns:

* **What to run** — :class:`RunSpec` and :class:`SweepSpec`, frozen declarative
  descriptions of runs (protocols, system size, workload, horizon, seed),
  built directly or through the fluent :class:`Sweep` builder;
* **How to run it** — the :class:`Executor` backends: :class:`SerialExecutor`
  (in-process, the default) and :class:`ParallelExecutor` (process pool),
  both honouring the same deterministic task→trace ordering, optionally
  wrapped by the content-addressed artifact cache (``store=`` on every
  ``run`` method / :class:`~repro.store.CachingExecutor`, see
  :mod:`repro.store`).  Only :meth:`RunSpec.run`, :meth:`SweepSpec.run` and
  :meth:`Sweep.run` take an executor; the experiments, the analysis helpers,
  the service and the CLI all run in-process;
* **What comes back** — :class:`ResultSet`, which plugs into the analysis
  (:meth:`~ResultSet.compare`, :meth:`~ResultSet.pairwise`), specification
  (:meth:`~ResultSet.check_eba`), and reporting (:meth:`~ResultSet.table`)
  layers, and can be viewed as one trace tuple per protocol or as a
  name→trace dict per scenario.

Typical usage::

    from repro.api import Sweep
    from repro.protocols import MinProtocol, OptimalFipProtocol
    from repro.workloads import random_scenarios

    results = (Sweep.of(MinProtocol(t=2), OptimalFipProtocol(t=2))
               .on(random_scenarios(n=7, t=2, count=500))
               .with_horizon(5)
               .run())
    print(results.compare("P_opt", "P_min").summary())
"""

from ..store import ArtifactStore, CachingExecutor, StoreLike, default_store, resolve_store
from .executors import (
    Executor,
    ParallelExecutor,
    RunTask,
    SerialExecutor,
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
    "default_store",
    "resolve_executor",
    "resolve_store",
]

