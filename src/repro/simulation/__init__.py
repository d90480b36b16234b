"""The synchronous simulation engine and run traces.

:class:`BatchSimulator` is the batched round-major engine that advances many
runs together, sharing work across runs; every production run comes from it
(:func:`simulate_tasks` runs executor tasks).  :func:`simulate` steps one run
at a time and is only the oracle the differential tests compare against.
Executors live in :mod:`repro.api`.
"""

from .batch import BatchSimulator, RunTask, simulate_tasks
from .engine import simulate, step
from .trace import RoundRecord, RunTrace, Scenario

__all__ = [
    "BatchSimulator",
    "RoundRecord",
    "RunTask",
    "RunTrace",
    "Scenario",
    "simulate",
    "simulate_tasks",
    "step",
]
