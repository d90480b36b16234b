"""The content-addressed artifact store.

:class:`ArtifactStore` layers three things over a byte
:class:`~repro.store.backends.StoreBackend`:

* **Serialization** — artifacts are written as a small self-describing payload
  (magic, artifact kind, format, then a gzip-compressed body).  Built systems,
  run traces, and reports use compressed pickle; JSON is available for
  artifacts that should stay tool-readable (experiment report text, sweep
  checkpoint manifests).
* **Corruption recovery** — a payload that fails to parse, decompress, or
  deserialize is *deleted and treated as a miss*, never raised: a damaged
  cache degrades to recomputation, it cannot crash a pipeline.  Backend IO
  errors (a full disk, revoked permissions, a flaky network mount) degrade
  the same way: reads report misses, writes are skipped (the in-memory layer
  still remembers the artifact), a one-time warning is emitted, and the
  ``io_errors`` counter in :meth:`ArtifactStore.stats` records the damage.
* **An in-memory LRU layer** — deserialized artifacts are kept in a small
  per-process LRU so repeated access within one process (e.g. the same built
  system consulted by several theorem checks) skips both disk and unpickling.
  Cached artifacts are shared instances: treat everything a store returns as
  frozen (see :meth:`ArtifactStore.get`).

Size accounting and LRU eviction run against the backend's metadata, so
``max_bytes`` bounds the on-disk footprint; :meth:`ArtifactStore.stats` feeds
the ``repro-eba cache stats`` CLI.

The default store lives at ``~/.cache/repro-eba``; override the location with
the ``REPRO_EBA_CACHE_DIR`` environment variable or any explicit path.
Setting ``REPRO_EBA_CACHE=1`` opts every ``store=None`` call site into the
default store, which is how fully external entry points (the quickstart
example, CI smoke runs) get caching without code changes.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from ..core.allocation import bulk_allocation
from ..core.errors import StoreError
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs.logs import get_logger
from .backends import FilesystemBackend, MemoryBackend, StoreBackend

_logger = get_logger("store")

# Process-wide mirrors of the per-instance session counters: every store in
# the process increments these alongside its own tallies, so ``/metrics`` and
# ``repro-eba obs`` see one aggregate while ``StoreStats.as_dict()`` (a pinned
# schema) keeps its per-instance meaning.
_M_HITS = _metrics.counter("repro_store_hits_total",
                           "Artifact-store hits (memory or backend)")
_M_MEMORY_HITS = _metrics.counter("repro_store_memory_hits_total",
                                  "Artifact-store hits served from the in-memory LRU")
_M_MISSES = _metrics.counter("repro_store_misses_total", "Artifact-store misses")
_M_PUTS = _metrics.counter("repro_store_puts_total", "Artifact-store writes")
_M_CORRUPTED = _metrics.counter("repro_store_corrupted_total",
                                "Corrupt store entries deleted and recomputed")
_M_IO_ERRORS = _metrics.counter("repro_store_io_errors_total",
                                "Store backend IO failures (degraded to uncached)")

#: First bytes of every stored payload; version-suffixed so a format change is
#: just a corrupt (= recomputed) entry for older readers, never a wrong value.
MAGIC = b"REBA1"

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_EBA_CACHE_DIR"

#: Environment variable that opts ``store=None`` call sites into the default
#: store ("1"/"true"/"yes"/"on", case-insensitive).
CACHE_ENABLE_ENV = "REPRO_EBA_CACHE"

#: Environment variable bounding the default store's on-disk size, in bytes.
CACHE_MAX_BYTES_ENV = "REPRO_EBA_CACHE_MAX_BYTES"

_SERIALIZERS = ("pickle", "json")


@dataclass
class StoreStats:
    """A snapshot of the store: persistent footprint plus session counters."""

    entries: int = 0
    total_bytes: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    memory_hits: int = 0
    puts: int = 0
    corrupted: int = 0
    io_errors: int = 0

    def describe(self) -> str:
        """A human-readable multi-line rendering (used by ``cache stats``)."""
        lines = [
            f"entries      : {self.entries}",
            f"total size   : {_format_bytes(self.total_bytes)}",
        ]
        for kind in sorted(self.by_kind):
            lines.append(f"  {kind:<18}: {self.by_kind[kind]}")
        lines.append(f"session hits : {self.hits} ({self.memory_hits} from memory)")
        lines.append(f"session miss : {self.misses}")
        lines.append(f"session puts : {self.puts}")
        if self.corrupted:
            lines.append(f"corrupted    : {self.corrupted} (deleted, recomputed)")
        if self.io_errors:
            lines.append(f"io errors    : {self.io_errors} (degraded to uncached)")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        """The machine-readable view (``cache stats --json``, the service's
        ``/stats``).  The schema is pinned by ``tests/test_cli.py``; treat key
        removals or renames as breaking changes to both consumers.
        """
        return {
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "by_kind": dict(sorted(self.by_kind.items())),
            "session": {
                "hits": self.hits,
                "memory_hits": self.memory_hits,
                "misses": self.misses,
                "puts": self.puts,
                "corrupted": self.corrupted,
                "io_errors": self.io_errors,
            },
        }


def _format_bytes(size: int) -> str:
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{int(size)} B"  # pragma: no cover - unreachable


def _encode(obj: object, kind: str, serializer: str) -> bytes:
    if serializer == "json":
        body = json.dumps(obj, sort_keys=True).encode("utf-8")
    else:
        body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    # mtime=0 keeps gzip output deterministic for identical artifacts.  Level 1
    # compresses a built n=4 system over 10x faster than the default level 9
    # for an entry ~16% bigger; _decode reads any level.
    buffer = io.BytesIO()
    with gzip.GzipFile(fileobj=buffer, mode="wb", compresslevel=1, mtime=0) as zipped:
        zipped.write(body)
    return b"\n".join([MAGIC, kind.encode("utf-8"), serializer.encode("utf-8"),
                       buffer.getvalue()])


def _decode(payload: bytes) -> object:
    magic, kind, serializer, body = payload.split(b"\n", 3)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    del kind  # informational; stats reads it via _payload_kind
    body = gzip.decompress(body)
    if serializer == b"json":
        return json.loads(body.decode("utf-8"))
    if serializer == b"pickle":
        # A stored system unpickles into a large acyclic graph: no GC passes.
        with bulk_allocation():
            return pickle.loads(body)
    raise ValueError(f"unknown serializer {serializer!r}")


def _payload_kind(payload: bytes) -> Optional[str]:
    try:
        magic, kind, _rest = payload.split(b"\n", 2)
    except ValueError:
        return None
    if magic != MAGIC:
        return None
    try:
        return kind.decode("utf-8")
    except UnicodeDecodeError:
        return None


class ArtifactStore:
    """Content-addressed artifact cache over a pluggable backend.

    Parameters
    ----------
    backend:
        Where bytes live; defaults to an in-process :class:`MemoryBackend`.
    max_bytes:
        Optional bound on the backend footprint; exceeding it after a write
        evicts least-recently-used entries until back under the bound.
    memory_entries:
        Capacity of the per-process deserialized-object LRU (0 disables it).
    """

    def __init__(self, backend: Optional[StoreBackend] = None,
                 max_bytes: Optional[int] = None,
                 memory_entries: int = 64) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise StoreError(f"max_bytes must be non-negative, got {max_bytes}")
        if memory_entries < 0:
            raise StoreError(f"memory_entries must be non-negative, got {memory_entries}")
        self.backend: StoreBackend = backend if backend is not None else MemoryBackend()
        self.max_bytes = max_bytes
        self.memory_entries = memory_entries
        self._memory: "OrderedDict[str, object]" = OrderedDict()
        # One store instance is shared across threads (the service's worker
        # pool, concurrent sweeps); the backend is safe on its own (atomic
        # files / a dict), but the memory LRU, the counters, and the size
        # estimate are read-modify-write state that needs a lock.  Reentrant
        # because put() may call evict_to().
        self._lock = threading.RLock()
        # Running upper bound on the backend footprint, so put() can decide
        # whether eviction is even needed without walking the backend every
        # time.  Overwrites make it over-count, which only triggers an exact
        # recount (in evict_to) earlier than necessary — the safe direction.
        self._size_estimate: Optional[int] = None
        self._hits = 0
        self._memory_hits = 0
        self._misses = 0
        self._puts = 0
        self._corrupted = 0
        self._io_errors = 0
        self._io_warned = False

    def _backend_error(self, operation: str, exc: Exception) -> None:
        """Record a backend IO failure; log a warning the first time only.

        The cache is an accelerator, not a dependency: a backend that starts
        raising (full disk, revoked permissions, flaky mount) must degrade
        every operation to its uncached behaviour, not crash the pipeline.
        One ``repro.store`` WARNING per store instance keeps a long sweep from
        drowning its output in repeats; the ``io_errors`` counter (and its
        process-wide metric) keeps the full tally.
        """
        with self._lock:
            self._io_errors += 1
            _M_IO_ERRORS.inc()
            if self._io_warned:
                return
            self._io_warned = True
        _logger.warning(
            "artifact store backend failed during %s (%r); degrading to "
            "uncached computation (further backend errors counted silently "
            "— see cache stats)", operation, exc)

    # ------------------------------------------------------------------ get/put

    def get(self, key: str) -> Optional[object]:
        """The cached artifact, or ``None`` on miss (including corrupt entries).

        Treat the result as **frozen**: within one process the memory LRU
        hands every caller the *same* instance (that is what makes repeat
        access free), so mutating a returned report/system would corrupt
        later in-process hits while the on-disk copy keeps the original —
        the same sharing contract as ``functools.lru_cache``.
        """
        if not _trace.is_active():
            return self._get_impl(key)
        with _trace.span("store.get", "store", {"key": key[:16]}) as span:
            artifact = self._get_impl(key)
            span.set("hit", artifact is not None)
            return artifact

    def _get_impl(self, key: str) -> Optional[object]:
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                self._hits += 1
                self._memory_hits += 1
                _M_HITS.inc()
                _M_MEMORY_HITS.inc()
                return self._memory[key]
            try:
                payload = self.backend.get(key)
            except Exception as exc:
                # IO degradation: an unreadable backend is a miss, not a crash.
                self._backend_error("get", exc)
                self._misses += 1
                _M_MISSES.inc()
                return None
            if payload is None:
                self._misses += 1
                _M_MISSES.inc()
                return None
            try:
                artifact = _decode(payload)
            except Exception:
                # Corruption recovery: drop the entry and report a miss so the
                # caller recomputes; never propagate a damaged cache as an error.
                try:
                    self.backend.delete(key)
                except Exception as exc:
                    self._backend_error("delete", exc)
                self._corrupted += 1
                self._misses += 1
                _M_CORRUPTED.inc()
                _M_MISSES.inc()
                return None
            self._hits += 1
            _M_HITS.inc()
            self._remember_locked(key, artifact)
            return artifact

    def put(self, key: str, artifact: object, kind: str = "artifact",
            serializer: str = "pickle") -> None:
        """Store an artifact under its content key.

        ``kind`` labels the artifact family for ``cache stats``; ``serializer``
        is ``"pickle"`` (default; any library object) or ``"json"`` (kept
        tool-readable on disk — report text, checkpoint manifests).
        """
        if serializer not in _SERIALIZERS:
            raise StoreError(f"unknown serializer {serializer!r}; use one of {_SERIALIZERS}")
        # The kind is one line of the payload header: a newline in it would
        # shift the header, and every later get() would drop the entry.
        if not isinstance(kind, str) or "\n" in kind:
            raise StoreError(f"artifact kind must be a str without newlines, got {kind!r}")
        payload = _encode(artifact, kind, serializer)
        if not _trace.is_active():
            self._put_impl(key, payload, artifact)
            return
        with _trace.span("store.put", "store",
                         {"key": key[:16], "kind": kind,
                          "bytes": len(payload)}):
            self._put_impl(key, payload, artifact)

    def _put_impl(self, key: str, payload: bytes, artifact: object) -> None:
        with self._lock:
            try:
                self.backend.put(key, payload)
            except Exception as exc:
                # IO degradation: skip the persistent write but keep the
                # artifact in the memory layer, so this process still gets
                # repeat-access sharing even with a dead disk.
                self._backend_error("put", exc)
                self._remember_locked(key, artifact)
                return
            self._puts += 1
            _M_PUTS.inc()
            self._remember_locked(key, artifact)
            if self.max_bytes is not None:
                if self._size_estimate is None:
                    self._size_estimate = self.total_bytes()
                else:
                    self._size_estimate += len(payload)
                if self._size_estimate > self.max_bytes:
                    self.evict_to(self.max_bytes, protect=key)

    def contains(self, key: str) -> bool:
        """Whether the key is present — no payload read, no hit counted, and no
        recency update (so checkpoint scans cannot perturb LRU eviction)."""
        with self._lock:
            if key in self._memory:
                return True
            try:
                return self.backend.contains(key)
            except Exception as exc:
                self._backend_error("contains", exc)
                return False

    def _remember_locked(self, key: str, artifact: object) -> None:
        # Caller holds self._lock (the _locked suffix is the contract).
        if self.memory_entries <= 0:
            return
        self._memory[key] = artifact
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    # ------------------------------------------------------------------ accounting

    def total_bytes(self) -> int:
        """The backend footprint in bytes (0 if the backend cannot be walked)."""
        try:
            return sum(entry.size for entry in self.backend.entries())
        except Exception as exc:
            self._backend_error("entries", exc)
            return 0

    def evict_to(self, max_bytes: int, protect: Optional[str] = None) -> int:
        """Evict least-recently-used entries until the footprint is ≤ ``max_bytes``.

        ``protect`` (typically the key just written) is never evicted, so a
        single artifact larger than the bound stays usable.  Returns the number
        of entries evicted.

        Entries tie on ``last_used`` more often than wall-clock intuition
        suggests — ``st_mtime`` has whole-second granularity on some
        filesystems, so a burst of writes lands on one timestamp — and a
        recency-only sort would make the eviction order among them arbitrary
        (directory-listing order).  The key is the deterministic tie-break:
        same store state, same evictions, on every platform.
        """
        with self._lock:
            try:
                entries = sorted(self.backend.entries(),
                                 key=lambda entry: (entry.last_used, entry.key))
            except Exception as exc:
                self._backend_error("entries", exc)
                return 0
            total = sum(entry.size for entry in entries)
            evicted = 0
            for entry in entries:
                if total <= max_bytes:
                    break
                if entry.key == protect:
                    continue
                try:
                    deleted = self.backend.delete(entry.key)
                except Exception as exc:
                    self._backend_error("delete", exc)
                    deleted = False
                if deleted:
                    self._memory.pop(entry.key, None)
                    total -= entry.size
                    evicted += 1
            self._size_estimate = total  # exact again after the walk
            return evicted

    def clear(self) -> int:
        """Delete every entry (and the memory layer); returns the number deleted."""
        with self._lock:
            deleted = 0
            try:
                for entry in list(self.backend.entries()):
                    if self.backend.delete(entry.key):
                        deleted += 1
            except Exception as exc:
                self._backend_error("clear", exc)
            self._memory.clear()
            self._size_estimate = 0
            return deleted

    def stats(self) -> StoreStats:
        """Current footprint (from the backend) plus this process's counters.

        Kind labels come from :meth:`StoreBackend.peek`, which reads only the
        payload header and leaves recency untouched — running ``cache stats``
        must not reorder (or fully re-read) the cache it is describing.
        """
        with self._lock:
            stats = StoreStats(hits=self._hits, misses=self._misses,
                               memory_hits=self._memory_hits, puts=self._puts,
                               corrupted=self._corrupted,
                               io_errors=self._io_errors)
        try:
            for entry in self.backend.entries():
                stats.entries += 1
                stats.total_bytes += entry.size
                try:
                    head = self.backend.peek(entry.key)
                except Exception as exc:
                    self._backend_error("peek", exc)
                    head = None
                kind = _payload_kind(head) if head is not None else None
                label = kind if kind is not None else "(unreadable)"
                stats.by_kind[label] = stats.by_kind.get(label, 0) + 1
        except Exception as exc:
            self._backend_error("entries", exc)
        with self._lock:
            # Re-read under the lock: the walk above may have raised (counted
            # by _backend_error) and concurrent operations may have failed
            # too — an unlocked read here could publish a torn count.
            stats.io_errors = self._io_errors
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArtifactStore(backend={self.backend!r}, max_bytes={self.max_bytes})"


# ------------------------------------------------------------------ resolution

#: What call sites may pass as a ``store=`` argument.
StoreLike = Union[ArtifactStore, str, Path, None]


def default_cache_dir() -> Path:
    """The default on-disk location: ``$REPRO_EBA_CACHE_DIR`` or ``~/.cache/repro-eba``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro-eba").expanduser()


def _env_max_bytes() -> Optional[int]:
    raw = os.environ.get(CACHE_MAX_BYTES_ENV)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise StoreError(f"{CACHE_MAX_BYTES_ENV}={raw!r} is not an integer byte count")


def default_store(path: "str | Path | None" = None,
                  max_bytes: Optional[int] = None) -> ArtifactStore:
    """The filesystem-backed store at ``path`` (default: :func:`default_cache_dir`)."""
    root = Path(path).expanduser() if path is not None else default_cache_dir()
    if max_bytes is None:
        max_bytes = _env_max_bytes()
    return ArtifactStore(FilesystemBackend(root), max_bytes=max_bytes)


def cache_enabled_by_env() -> bool:
    """Whether ``REPRO_EBA_CACHE`` opts ``store=None`` call sites into caching."""
    return os.environ.get(CACHE_ENABLE_ENV, "").strip().lower() in ("1", "true", "yes", "on")


#: Stores resolved from a path (or the env opt-in), memoized per absolute
#: path so repeated ``store="dir"`` / ``REPRO_EBA_CACHE=1`` call sites share
#: one handle — and with it the in-memory LRU and the session counters —
#: instead of re-paying disk + unpickle on every nominal "hit".
_RESOLVED_STORES: Dict[Path, ArtifactStore] = {}


def _shared_store(path: "str | Path | None") -> ArtifactStore:
    root = (Path(path).expanduser() if path is not None else default_cache_dir()).resolve()
    store = _RESOLVED_STORES.get(root)
    if store is None:
        store = default_store(root)
        _RESOLVED_STORES[root] = store
    return store


def resolve_store(store: StoreLike) -> Optional[ArtifactStore]:
    """Coerce a ``store=`` argument to an :class:`ArtifactStore` (or ``None`` = off).

    ``None`` normally disables caching, but honours the ``REPRO_EBA_CACHE``
    environment opt-in (returning the default store) so external entry points
    can be cached without threading an argument through.  Strings and paths
    open a filesystem store at that directory; the same path always resolves
    to the same (process-wide) store instance.
    """
    if store is None:
        if cache_enabled_by_env():
            return _shared_store(None)
        return None
    if isinstance(store, ArtifactStore):
        return store
    if isinstance(store, (str, Path)):
        return _shared_store(store)
    raise StoreError(
        f"{store!r} is not a store; pass an ArtifactStore, a cache directory path, or None"
    )
