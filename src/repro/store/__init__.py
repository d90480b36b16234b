"""``repro.store`` — the content-addressed artifact store.

The repo's hot path is exponential: building an interpreted system at n=4
takes seconds, and historically every experiment, CLI invocation, and CI job
rebuilt identical systems and re-ran identical sweeps from scratch.  This
package caches those artifacts once and addresses them by *content*:

* :mod:`repro.store.keys` — canonical hashing of specs, protocols, patterns,
  models, contexts, and programs, with a store version and a code fingerprint
  folded into every key so stale caches can never return wrong results;
* :mod:`repro.store.backends` — pluggable byte stores (filesystem default,
  in-memory for tests);
* :mod:`repro.store.store` — :class:`ArtifactStore`: compressed self-labelled
  payloads, corruption-as-miss recovery, an in-memory LRU layer, size
  accounting, and LRU eviction;
* :mod:`repro.store.caching` — the domain keys, among them the per-run
  key the run API caches each run under, which makes sweeps resumable.

Everything that computes an expensive artifact takes a ``store=`` argument
(``RunSpec.run`` / ``SweepSpec.run`` / ``Sweep.run``, ``build_system``,
``EBAContext.build_system``, ``check_implements``, ``check_safety``, every
experiment's ``report``); pass an :class:`ArtifactStore`, a cache-directory
path, or ``None`` (off — unless ``REPRO_EBA_CACHE=1`` opts the process in).
The CLI exposes the store as ``--cache`` / ``--cache-dir`` flags and the
``repro-eba cache stats|clear|warm`` subcommand.
"""

from .backends import FilesystemBackend, MemoryBackend, StoreBackend, StoreEntry
from .caching import (
    context_system_key,
    equivalence_report_key,
    implementation_report_key,
    run_task_key,
    safety_report_key,
    sweep_key,
    system_key,
)
from .keys import STORE_VERSION, code_fingerprint, content_key, token
from .store import (
    ArtifactStore,
    StoreLike,
    StoreStats,
    cache_enabled_by_env,
    default_cache_dir,
    default_store,
    resolve_store,
)

__all__ = [
    "ArtifactStore",
    "FilesystemBackend",
    "MemoryBackend",
    "STORE_VERSION",
    "StoreBackend",
    "StoreEntry",
    "StoreLike",
    "StoreStats",
    "cache_enabled_by_env",
    "code_fingerprint",
    "content_key",
    "context_system_key",
    "default_cache_dir",
    "default_store",
    "equivalence_report_key",
    "implementation_report_key",
    "resolve_store",
    "run_task_key",
    "safety_report_key",
    "sweep_key",
    "system_key",
    "token",
]
