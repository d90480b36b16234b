"""The cancel scope: where long computations ask whether to stop.

Code run inside :func:`cancellable` stops at its next :func:`checkpoint`
once ``check`` raises: the batched engine calls it at the top of every round,
a process-pool fan-out as each chunk completes.  The scope is a
:class:`~contextvars.ContextVar`, so each thread sees only its own.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Optional

__all__ = ["cancellable", "checkpoint"]

_check: ContextVar[Optional[Callable[[], None]]] = ContextVar("cancel_check", default=None)


@contextmanager
def cancellable(check: Callable[[], None]) -> Iterator[None]:
    """Run the block with ``check`` as the active cancel check."""
    token = _check.set(check)
    try:
        yield
    finally:
        _check.reset(token)


def checkpoint() -> None:
    """Call the active cancel check, if any; what it raises propagates."""
    check = _check.get()
    if check is not None:
        check()
