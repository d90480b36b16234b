"""The cancel scope: where long computations ask whether to stop.

Code run inside :func:`cancellable` stops at its next :func:`checkpoint`
once ``check`` raises.  The long phases poll it:

* the batched engine at the top of every round and before each protocol
  ``act`` call it has not memoised;
* the model checker on each formula evaluation (a cache miss);
* the implementation check once per agent, the Definition 6.2 scan between
  its phases and once per agent;
* a process-pool fan-out as each chunk completes.

So a stop lands within one round, one formula evaluation, one scan step, or
one protocol call.  The scope is a :class:`~contextvars.ContextVar`, so each
thread sees only its own.
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
