"""The ``repro.*`` logging hierarchy.

The library logs through standard :mod:`logging` under one namespace rooted
at ``repro`` — ``repro.service.journal``, ``repro.store``, ... — replacing
the earlier scattering of ``warnings.warn`` / ``print(file=sys.stderr)``
one-shots in the service and store layers.

* **Libraries emit, applications configure.**  Modules call
  :func:`get_logger` and log; nothing attaches handlers at import time, so
  embedding the library stays silent-by-default (Python's last-resort
  handler still surfaces WARNING+ on stderr when nobody configured
  anything).  The CLI's ``serve --log-level`` calls
  :func:`configure_logging`.
* **One-shot warnings become logger-level dedup.**  The old pattern —
  ``warn once per journal, count the rest silently`` — is kept by
  :func:`warn_once`, which drops repeat messages for the same ``(logger,
  key)`` pair; the per-instance counters (``write_errors``, ``io_errors``)
  still record every occurrence.
"""

from __future__ import annotations

import logging
import sys
import threading
from typing import Hashable, Set, Tuple

__all__ = ["ROOT_LOGGER_NAME", "get_logger", "configure_logging", "warn_once"]

#: The root of the library's logger namespace.
ROOT_LOGGER_NAME = "repro"

#: Format used by :func:`configure_logging`'s stream handler.
LOG_FORMAT = "%(asctime)s %(levelname)s %(name)s: %(message)s"

_once_lock = threading.Lock()
_once_seen: Set[Tuple[str, Hashable]] = set()


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``repro`` namespace.

    ``get_logger("service.journal")`` and ``get_logger("repro.service.journal")``
    both resolve to ``repro.service.journal``; the empty string gives the root
    ``repro`` logger.
    """
    if not name:
        return logging.getLogger(ROOT_LOGGER_NAME)
    if name == ROOT_LOGGER_NAME or name.startswith(ROOT_LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def configure_logging(level: "str | int" = "warning",
                      stream=None) -> logging.Logger:
    """Attach one stderr stream handler to the ``repro`` logger at ``level``.

    Idempotent: re-configuring adjusts the existing handler's level instead
    of stacking handlers (so tests and repeated CLI invocations in one
    process do not multiply output lines).
    """
    if isinstance(level, str):
        resolved = logging.getLevelName(level.upper())
        if not isinstance(resolved, int):
            raise ValueError(f"unknown log level {level!r}")
        level = resolved
    logger = logging.getLogger(ROOT_LOGGER_NAME)
    logger.setLevel(level)
    handler = None
    for existing in logger.handlers:
        if getattr(existing, "_repro_obs_handler", False):
            handler = existing
            break
    if handler is None:
        handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
        handler.setFormatter(logging.Formatter(LOG_FORMAT))
        handler._repro_obs_handler = True
        logger.addHandler(handler)
    elif stream is not None:
        handler.setStream(stream)
    handler.setLevel(level)
    return logger


def warn_once(logger: logging.Logger, key: Hashable, message: str,
              *args: object) -> bool:
    """Log a WARNING once per ``(logger, key)``; returns whether it logged.

    The logging replacement for the old one-shot ``warnings.warn`` pattern:
    the first occurrence for a given key (a journal path, a store instance)
    is logged, repeats are dropped here — callers keep exact counts in their
    own counters/metrics.
    """
    token = (logger.name, key)
    with _once_lock:
        if token in _once_seen:
            return False
        _once_seen.add(token)
    logger.warning(message, *args)
    return True
