"""Run-space scans: shard per-run kernels across processes via shared memory.

This module is the fan-out for a *scan kernel* ``kernel(system, start,
stop)`` that maps a contiguous run range to a fixed-dtype array with one row
per run.  It was built for the 0-chain receipts of the Definition 6.2 safety
scan (:mod:`repro.kbp.safety`), which now computes them in-process, once per
shared round record; no library code calls ``scan_runs`` any more.

``scan_runs`` shards ``[0, num_runs)`` into contiguous blocks and runs the
kernel over them:

* **in-process** when there is nothing to gain (one worker, few runs, or no
  ``fork`` start method) — the fallback is always correct, parallelism is
  purely an optimisation;
* **forked workers + shared memory** otherwise.  The parent stashes the
  (large, already-built) :class:`~repro.systems.interpreted.InterpretedSystem`
  and the kernel in a module global *before* forking, so children inherit them
  by copy-on-write and the work items that cross the process boundary are bare
  ``(start, stop)`` tuples — no system pickling, in either direction.  Results
  come back through one :class:`multiprocessing.shared_memory.SharedMemory`
  block: each worker writes its rows at ``result[start:stop]``, which is
  race-free because the shards are disjoint.

Because every shard is a pure function of the run range and the rows land at
their run's own index, the assembled array is byte-identical to the serial
kernel call for any worker count — the same determinism contract the run/batch
executors keep (see :mod:`repro.api.executors`), extended to the check phase.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..logic import words as _words
from ..obs import trace as _trace
from ..systems.interpreted import InterpretedSystem

__all__ = ["ScanKernel", "scan_runs", "fork_available"]

#: A per-run scan kernel: ``kernel(system, start, stop)`` returns an array of
#: shape ``(stop - start, *row_shape)`` — row ``i`` describes run ``start + i``.
ScanKernel = Callable[[InterpretedSystem, int, int], "object"]

#: Below this many runs the fork + shared-memory machinery costs more than the
#: scan itself; ``scan_runs`` stays in-process.
MIN_RUNS_TO_FORK = 2048

#: Pre-fork stash: ``(system, kernel)``, inherited by workers via fork
#: copy-on-write.  Only ever set around a ``scan_runs`` fan-out.
_SCAN_STATE: Optional[Tuple[InterpretedSystem, ScanKernel]] = None


def fork_available() -> bool:
    """Whether the copy-on-write ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _worker(item: Tuple[str, Tuple[int, ...], str, int, int]) -> Tuple[int, int]:
    """One shard: run the stashed kernel and write its rows into shared memory."""
    from multiprocessing import shared_memory

    shm_name, total_shape, dtype_str, start, stop = item
    system, kernel = _SCAN_STATE  # type: ignore[misc]  # set pre-fork
    shard_span = _trace.NOOP
    if _trace.is_active():
        # Forked worker: the inherited tracer reopens the sink under this
        # pid, so shard spans merge into the parent's trace file.
        shard_span = _trace.span("scan.shard", "exec",
                                 {"start": start, "stop": stop})
    with shard_span:
        rows = np.asarray(kernel(system, start, stop), dtype=np.dtype(dtype_str))
    expected = (stop - start,) + tuple(total_shape[1:])
    if rows.shape != expected:
        raise ValueError(
            f"scan kernel returned shape {rows.shape} for runs [{start}, {stop}); "
            f"expected {expected}")
    block = shared_memory.SharedMemory(name=shm_name)
    try:
        result = np.ndarray(total_shape, dtype=np.dtype(dtype_str), buffer=block.buf)
        result[start:stop] = rows
    finally:
        block.close()
    return (start, stop)


def scan_runs(system: InterpretedSystem, kernel: ScanKernel, *,
              row_shape: Sequence[int] = (), dtype: str = "int16",
              workers: int = 1):
    """Apply a per-run kernel over every run, sharded across ``workers`` processes.

    Parameters
    ----------
    system:
        The (fully built) system to scan.
    kernel:
        The scan kernel; must be a pure function of ``(system, start, stop)``.
    row_shape:
        Trailing shape of one run's row (``()`` for a scalar per run).
    dtype:
        numpy dtype string of the result array.
    workers:
        Desired process count.  The call falls back to one in-process kernel
        invocation whenever sharding cannot help (``workers <= 1``, fewer than
        :data:`MIN_RUNS_TO_FORK` runs, or no ``fork``).

    Returns the assembled ``(num_runs, *row_shape)`` array (a plain in-process
    copy; the shared-memory block is unlinked before returning).
    """
    global _SCAN_STATE

    num_runs = len(system.runs)
    serial = workers <= 1 or num_runs < MIN_RUNS_TO_FORK or not fork_available()
    scan_span = _trace.NOOP
    if _trace.is_active():
        scan_span = _trace.span("scan.runs", "exec", {
            "runs": num_runs, "workers": workers, "serial": serial})
    with scan_span as span:
        if serial:
            return np.asarray(kernel(system, 0, num_runs), dtype=np.dtype(dtype))

        from multiprocessing import shared_memory

        total_shape = (num_runs,) + tuple(row_shape)
        dt = np.dtype(dtype)
        nbytes = max(1, int(np.prod(total_shape)) * dt.itemsize)
        shards = _words.blocks(num_runs, workers * 4)
        span.set("shards", len(shards))
        block = shared_memory.SharedMemory(create=True, size=nbytes)
        try:
            items = [(block.name, total_shape, dt.str, start, stop)
                     for start, stop in shards]
            _SCAN_STATE = (system, kernel)
            try:
                context = multiprocessing.get_context("fork")
                with context.Pool(processes=min(workers, len(items))) as pool:
                    pool.map(_worker, items)
            finally:
                _SCAN_STATE = None
            shared = np.ndarray(total_shape, dtype=dt, buffer=block.buf)
            return shared.copy()
        finally:
            block.close()
            block.unlink()
