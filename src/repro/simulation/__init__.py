"""The synchronous simulation engine and run traces.

:func:`simulate` here is the low-level engine primitive (one run, in-process);
:class:`BatchSimulator` is the batched round-major engine that advances all
runs of a system together, sharing work across runs (the default for
exhaustive system construction).  Batch orchestration lives in
:mod:`repro.api`.
"""

from .batch import BatchSimulator, BatchTask, execute_batch, execute_batches, simulate_batch
from .engine import simulate, step
from .trace import BatchResult, RoundRecord, RunTrace, Scenario

__all__ = [
    "BatchResult",
    "BatchSimulator",
    "BatchTask",
    "RoundRecord",
    "RunTrace",
    "Scenario",
    "execute_batch",
    "execute_batches",
    "simulate",
    "simulate_batch",
    "step",
]
