"""``repro.api`` — the unified experiment-orchestration layer.

This package is the single way runs are specified and executed.  It separates
three concerns:

* **What to run** — :class:`RunSpec` and :class:`SweepSpec`, frozen declarative
  descriptions of runs (protocols, system size, workload, horizon, seed),
  built directly or through the fluent :class:`Sweep` builder;
* **How to run it** — the ``run`` method of every spec, which simulates the
  runs in-process in deterministic task order, optionally through the
  content-addressed artifact store (``store=``, see :mod:`repro.store`);
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

from ..store import ArtifactStore, StoreLike, default_store, resolve_store
from .executors import ParallelExecutor, RunTask
from .results import ResultSet
from .specs import RunSpec, Scenario, Sweep, SweepSpec

__all__ = [
    "ArtifactStore",
    "ParallelExecutor",
    "ResultSet",
    "RunSpec",
    "RunTask",
    "Scenario",
    "StoreLike",
    "Sweep",
    "SweepSpec",
    "default_store",
    "resolve_store",
]

