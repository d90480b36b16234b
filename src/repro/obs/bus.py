"""The observer event bus and throttled progress reporting.

A process-wide publish/subscribe :data:`BUS` any layer can emit structured
events into, and any front end (the CLI, the job server's workers, a test)
can subscribe to — without the emitting layer knowing who is listening.

Event kinds currently emitted by the library:

=====================  ====================================================
kind                   payload (beyond ``kind`` and ``thread``)
=====================  ====================================================
``progress``           ``phase``, ``done``, ``total`` (may be ``None``),
                       ``unit``, ``elapsed``, ``eta`` (may be ``None``)
``sweep.resume``       ``spec``, ``remaining``, ``total`` — a cached sweep
                       resuming part-way
``pool.rebuild``       ``pending`` — a broken process pool being rebuilt
=====================  ====================================================

Every payload carries ``thread`` (the emitting thread's ident), which is how
the service's workers attribute concurrent jobs' progress streams to the
right job.  Subscriber callbacks must not raise; one that does is counted
(``repro_obs_callback_errors_total``) and skipped, never propagated into the
emitting computation.

:class:`ProgressReporter` is the emitting half for long loops: throttled to
``min_interval`` seconds, computes elapsed/ETA, and — when nobody subscribed
— costs one dict lookup per ``advance``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from . import metrics as _metrics

__all__ = ["EventBus", "BUS", "ProgressReporter"]

_CALLBACK_ERRORS = _metrics.counter(
    "repro_obs_callback_errors_total",
    "Event-bus subscriber callbacks that raised (caught and skipped)")


class EventBus:
    """A minimal, thread-safe publish/subscribe hub keyed by event kind."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subscribers: Dict[str, List[Callable[[dict], None]]] = {}

    def subscribe(self, kind: str,
                  callback: Callable[[dict], None]) -> Callable[[dict], None]:
        """Register ``callback`` for ``kind``; returns it (for unsubscribe)."""
        with self._lock:
            self._subscribers.setdefault(kind, []).append(callback)
        return callback

    def unsubscribe(self, kind: str, callback: Callable[[dict], None]) -> None:
        """Remove a subscription (missing ones are ignored)."""
        with self._lock:
            callbacks = self._subscribers.get(kind)
            if callbacks is None:
                return
            try:
                callbacks.remove(callback)
            except ValueError:
                return
            if not callbacks:
                del self._subscribers[kind]

    def has_subscribers(self, kind: str) -> bool:
        """Whether anyone is listening — the emitters' cheap pre-check.

        Deliberately lock-free: dict membership is atomic under the GIL, a
        stale answer only delays/skips one throttled progress event, and the
        whole point of this method is to cost one dict lookup on the hot
        path.  :meth:`emit` re-reads under the lock before delivering.
        """
        # repro-lint: disable=LOCK001 -- benign racy pre-check; see docstring
        return kind in self._subscribers

    def emit(self, kind: str, **payload: Any) -> int:
        """Deliver an event to every subscriber of ``kind``; returns how many
        callbacks ran.  Callback exceptions are counted and swallowed."""
        with self._lock:
            callbacks = list(self._subscribers.get(kind, ()))
        if not callbacks:
            return 0
        event = dict(payload)
        event["kind"] = kind
        event.setdefault("thread", threading.get_ident())
        for callback in callbacks:
            try:
                callback(event)
            except Exception:
                _CALLBACK_ERRORS.inc()
        return len(callbacks)


#: The process-wide bus every library emitter and front-end observer shares.
BUS = EventBus()


class ProgressReporter:
    """Throttled ``progress`` events for one phase of a long computation.

    Call :meth:`advance` (or :meth:`update`) from the loop; at most one event
    per ``min_interval`` seconds goes out — plus a final event when ``done``
    reaches ``total`` or :meth:`finish` is called — carrying elapsed time and
    an ETA extrapolated from the completion rate so far.
    """

    def __init__(self, phase: str, total: Optional[int] = None,
                 unit: str = "items", min_interval: float = 0.2,
                 bus: Optional[EventBus] = None) -> None:
        self.phase = phase
        self.total = total
        self.unit = unit
        self.min_interval = min_interval
        self.bus = bus if bus is not None else BUS
        self.done = 0
        self._started = time.monotonic()
        self._last_emit = 0.0

    def advance(self, count: int = 1) -> None:
        """Add ``count`` completed items and maybe emit."""
        self.done += count
        self._maybe_emit(final=self.total is not None and self.done >= self.total)

    def update(self, done: int) -> None:
        """Set the absolute completion count and maybe emit."""
        self.done = done
        self._maybe_emit(final=self.total is not None and self.done >= self.total)

    def finish(self) -> None:
        """Emit one final event regardless of throttling."""
        self._maybe_emit(final=True)

    def _maybe_emit(self, final: bool = False) -> None:
        if not self.bus.has_subscribers("progress"):
            return
        now = time.monotonic()
        if not final and now - self._last_emit < self.min_interval:
            return
        self._last_emit = now
        elapsed = now - self._started
        eta: Optional[float] = None
        if self.total and self.done and self.done < self.total and elapsed > 0:
            eta = elapsed * (self.total - self.done) / self.done
        self.bus.emit(
            "progress",
            phase=self.phase,
            done=self.done,
            total=self.total,
            unit=self.unit,
            elapsed=round(elapsed, 3),
            eta=None if eta is None else round(eta, 3),
        )
