"""Pausing the cyclic garbage collector around bulk allocation.

CPython's cyclic collector runs whenever container allocations outpace
deallocations by a threshold, and each older-generation pass walks every
tracked object.  Building an interpreted system or unpickling one allocates a
few tracked containers per run — traces, round lists, tuples — so the
collector runs over and over while the heap grows, and finds nothing: those
graphs are acyclic and are freed by reference counting alone.

:func:`bulk_allocation` pauses the collector for such a block.  It is
re-entrant and thread-safe: the collector is process-wide, so one
lock-guarded count of open blocks is too.  The first block to enter records
whether the collector was enabled and disables it; the last block to exit
restores that state.  A caller that had already disabled the collector keeps
it disabled.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["bulk_allocation"]

_lock = threading.Lock()
#: Blocks currently inside :func:`bulk_allocation`, across all threads.
_depth = 0
#: ``gc.isenabled()`` as the outermost block found it.
_was_enabled = False


@contextmanager
def bulk_allocation() -> Iterator[None]:
    """Pause cyclic GC while the block allocates a large acyclic object graph."""
    global _depth, _was_enabled
    with _lock:
        if _depth == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _was_enabled:
                gc.enable()
