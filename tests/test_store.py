"""Tests for the artifact-store core: canonical keys, backends, and the store.

Covers the correctness properties the cache must not lose:

* key canonicality and *invalidation* — equal configurations hash identically,
  any key-relevant field change (including :data:`repro.store.STORE_VERSION`
  and the code fingerprint) mints a fresh key;
* backend mechanics — put/get/delete/entries, atomic overwrite;
* store mechanics — hit/miss accounting, JSON and pickle payloads, the
  in-memory LRU layer, size accounting, LRU eviction, and corrupted-entry
  recovery (miss + delete, never an exception).
"""

from __future__ import annotations

import gzip
import json
import pickle
import threading

import pytest

from repro.core.errors import StoreError
from repro.failures import FailurePattern, SendingOmissionModel
from repro.protocols import BasicProtocol, MinProtocol, OptimalFipProtocol
from repro.simulation import simulate
from repro.store import (
    ArtifactStore,
    FilesystemBackend,
    MemoryBackend,
    content_key,
    default_cache_dir,
    default_store,
    resolve_store,
    run_task_key,
    token,
)
from repro.store import keys as keys_module
from repro.store import store as store_module
from repro.systems import gamma_min


# --------------------------------------------------------------------------- keys


class TestToken:
    def test_primitives_are_tagged(self):
        # bool must not collapse into int: True and 1 are different configs.
        assert token(True) != token(1)
        assert token(None) != token(0)
        assert token("1") != token(1)

    def test_sets_are_order_insensitive(self):
        assert token(frozenset({(1, 2), (0, 1)})) == token(frozenset({(0, 1), (1, 2)}))

    def test_dicts_are_order_insensitive(self):
        assert token({"a": 1, "b": 2}) == token({"b": 2, "a": 1})

    def test_dataclasses_cover_patterns(self):
        first = FailurePattern(n=3, faulty=frozenset({0}),
                               omissions=frozenset({(0, 0, 1), (1, 0, 2)}))
        second = FailurePattern(n=3, faulty=frozenset({0}),
                                omissions=frozenset({(1, 0, 2), (0, 0, 1)}))
        assert token(first) == token(second)

    def test_protocol_instances_tokenize_via_dict(self):
        assert token(MinProtocol(1)) == token(MinProtocol(1))
        assert token(MinProtocol(1)) != token(MinProtocol(2))
        assert token(MinProtocol(1)) != token(BasicProtocol(1))

    def test_store_token_hook_wins(self):
        class Custom:
            def __init__(self, x):
                self.hidden = object()  # untokenisable on purpose
                self.x = x

            def __store_token__(self):
                return self.x

        assert token(Custom(3)) == token(Custom(3))
        assert token(Custom(3)) != token(Custom(4))

    def test_untokenisable_object_raises(self):
        class Slotted:
            __slots__ = ()

        with pytest.raises(StoreError, match="canonical store token"):
            token(Slotted())


class TestContentKey:
    def test_deterministic_and_kind_namespaced(self):
        model = SendingOmissionModel(n=3, t=1)
        assert content_key("system", model) == content_key("system", model)
        assert content_key("system", model) != content_key("report", model)

    def test_field_change_changes_key(self):
        assert (content_key("ctx", gamma_min(3, 1))
                != content_key("ctx", gamma_min(3, 1, horizon=4)))
        assert content_key("ctx", gamma_min(3, 1)) != content_key("ctx", gamma_min(4, 1))

    def test_store_version_invalidates(self, monkeypatch):
        before = content_key("x", 1)
        monkeypatch.setattr(keys_module, "STORE_VERSION", keys_module.STORE_VERSION + 1)
        assert content_key("x", 1) != before

    def test_code_fingerprint_invalidates(self, monkeypatch):
        before = content_key("x", 1)
        monkeypatch.setattr(keys_module, "_FINGERPRINT_CACHE", "different-code")
        assert content_key("x", 1) != before

    def test_run_task_key_covers_every_field(self):
        pattern = FailurePattern.failure_free(3)
        base = (MinProtocol(1), 3, (1, 1, 0), pattern, None)
        variants = [
            (MinProtocol(2), 3, (1, 1, 0), pattern, None),
            (BasicProtocol(1), 3, (1, 1, 0), pattern, None),
            (MinProtocol(1), 3, (1, 0, 1), pattern, None),
            (MinProtocol(1), 3, (1, 1, 0),
             FailurePattern(n=3, faulty=frozenset({0}),
                            omissions=frozenset({(0, 0, 1)})), None),
            (MinProtocol(1), 3, (1, 1, 0), pattern, 5),
        ]
        keys = {run_task_key(task) for task in [base, *variants]}
        assert len(keys) == len(variants) + 1


# --------------------------------------------------------------------------- backends


@pytest.fixture(params=["memory", "filesystem"])
def backend(request, tmp_path):
    if request.param == "memory":
        return MemoryBackend()
    return FilesystemBackend(tmp_path / "cache")


class TestBackends:
    def test_roundtrip_and_delete(self, backend):
        key = "ab" + "0" * 62
        assert backend.get(key) is None
        backend.put(key, b"payload")
        assert backend.get(key) == b"payload"
        assert backend.delete(key) is True
        assert backend.get(key) is None
        assert backend.delete(key) is False

    def test_overwrite_replaces(self, backend):
        key = "cd" + "0" * 62
        backend.put(key, b"old")
        backend.put(key, b"new")
        assert backend.get(key) == b"new"
        assert [entry.size for entry in backend.entries()] == [3]

    def test_entries_report_sizes(self, backend):
        backend.put("ee" + "0" * 62, b"12345")
        backend.put("ff" + "0" * 62, b"6789")
        sizes = sorted(entry.size for entry in backend.entries())
        assert sizes == [4, 5]

    def test_contains_and_peek_do_not_touch_recency(self, backend):
        """Membership tests and header reads must not reorder LRU eviction."""
        old, new = "aa" + "0" * 62, "bb" + "0" * 62
        backend.put(old, b"older-entry")
        if isinstance(backend, FilesystemBackend):
            import os
            path = backend._path(old)
            os.utime(path, (1, 1))  # force a clearly stale mtime
        backend.put(new, b"newer-entry")
        assert backend.contains(old) is True
        assert backend.peek(old, 5) == b"older"
        assert backend.contains("cc" + "0" * 62) is False
        assert backend.peek("cc" + "0" * 62) is None
        by_recency = sorted(backend.entries(), key=lambda entry: entry.last_used)
        assert by_recency[0].key == old  # still the eviction candidate


# --------------------------------------------------------------------------- the store


class TestArtifactStore:
    def test_hit_miss_accounting(self, tmp_path):
        store = default_store(tmp_path)
        assert store.get("a" * 64) is None
        store.put("a" * 64, {"x": 1}, kind="test")
        assert store.get("a" * 64) == {"x": 1}
        stats = store.stats()
        assert (stats.misses, stats.hits, stats.puts) == (1, 1, 1)
        assert stats.by_kind == {"test": 1}

    def test_json_payload_is_tool_readable(self, tmp_path):
        store = default_store(tmp_path)
        store.put("b" * 64, {"rows": [1, 2]}, kind="report", serializer="json")
        fresh = default_store(tmp_path)
        assert fresh.get("b" * 64) == {"rows": [1, 2]}
        payload = fresh.backend.get("b" * 64)
        assert payload.startswith(b"REBA1\nreport\njson\n")

    def test_unknown_serializer_rejected(self):
        with pytest.raises(StoreError, match="serializer"):
            ArtifactStore().put("c" * 64, 1, serializer="yaml")

    @pytest.mark.parametrize("kind", ["report\nv2", "\n", 7, None, b"report"])
    def test_unreadable_kind_rejected_before_writing(self, kind, tmp_path):
        """A kind that cannot be one header line would write an entry no get() reads."""
        store = default_store(tmp_path)
        with pytest.raises(StoreError, match="kind"):
            store.put("a" * 64, {"a": 1}, kind=kind)
        stats = store.stats()
        assert (stats.entries, stats.puts) == (0, 0)
        store.put("a" * 64, {"a": 1}, kind="report v2")
        assert default_store(tmp_path).get("a" * 64) == {"a": 1}

    def test_memory_lru_serves_after_backend_loss(self, tmp_path):
        store = default_store(tmp_path)
        store.put("d" * 64, [1, 2, 3])
        store.clear()  # clears backend *and* memory
        assert store.get("d" * 64) is None
        store.put("e" * 64, [4, 5])
        for entry in list(store.backend.entries()):
            store.backend.delete(entry.key)  # backend loss only
        assert store.get("e" * 64) == [4, 5]  # memory LRU still has it
        assert store.stats().memory_hits == 1

    def test_memory_lru_capacity(self):
        store = ArtifactStore(MemoryBackend(), memory_entries=2)
        for index in range(3):
            store.put(f"{index:064d}", index)
        assert len(store._memory) == 2

    def test_corrupted_entry_is_recovered_not_raised(self, tmp_path):
        store = default_store(tmp_path)
        key = "f" * 64
        store.put(key, {"ok": True})
        for variant in (b"garbage", b"REBA1\nkind\npickle\nnot-gzip"):
            fresh = default_store(tmp_path)  # bypass the memory layer
            fresh.backend.put(key, variant)
            assert fresh.get(key) is None
            stats = fresh.stats()
            assert stats.corrupted == 1
            assert stats.entries == 0  # the damaged entry was deleted

    def test_eviction_is_lru_and_protects_new_key(self, tmp_path):
        store = default_store(tmp_path)
        store.max_bytes = 1  # force eviction after every put
        store.put("1" * 64, "first")
        store.put("2" * 64, "second")
        fresh = default_store(tmp_path)
        assert fresh.get("1" * 64) is None  # oldest evicted
        assert fresh.get("2" * 64) == "second"  # newest protected

    def test_eviction_order_is_deterministic_among_same_second_entries(self, tmp_path):
        """Regression: ``st_mtime`` has 1-second granularity on some filesystems.

        A burst of writes can land on one timestamp, and a recency-only sort
        would then evict in directory-listing order — arbitrary across
        platforms.  The eviction scan tie-breaks on the key, so the same store
        state always evicts the same entries.
        """
        import os

        store = default_store(tmp_path)
        keys = [ch * 64 for ch in ("d", "b", "f", "a", "c", "e")]
        for key in keys:
            store.put(key, key)
        # Pin every entry to one whole-second mtime, as a coarse filesystem would.
        for key in keys:
            os.utime(store.backend._path(key), (1_000_000, 1_000_000))
        survivor_count = 2
        sizes = sorted(entry.size for entry in store.backend.entries())
        store.evict_to(sum(sizes[:survivor_count]))
        survivors = sorted(entry.key for entry in store.backend.entries())
        # Keys evict in ascending key order, so exactly the largest keys remain.
        assert survivors == sorted(keys)[-survivor_count:]

    def test_eviction_not_triggered_under_the_bound(self, tmp_path):
        class CountingEntriesBackend(FilesystemBackend):
            walks = 0

            def entries(self):
                type(self).walks += 1
                return super().entries()

        store = ArtifactStore(CountingEntriesBackend(tmp_path / "cache"),
                              max_bytes=10_000_000)
        for index in range(5):
            store.put(f"{index:064d}", index)
        # One initial total_bytes() walk to seed the running estimate; the
        # following puts stay under the bound and must not walk the backend.
        assert CountingEntriesBackend.walks == 1

    def test_size_accounting(self, tmp_path):
        store = default_store(tmp_path)
        assert store.total_bytes() == 0
        store.put("9" * 64, list(range(100)))
        assert store.total_bytes() > 0
        assert store.stats().total_bytes == store.total_bytes()

    def test_clear_counts(self, tmp_path):
        store = default_store(tmp_path)
        store.put("3" * 64, 1)
        store.put("4" * 64, 2)
        assert store.clear() == 2
        assert store.stats().entries == 0

    def test_corruption_as_miss_under_concurrent_eviction(self, tmp_path):
        """Corrupt entries read as misses even while eviction races the reads.

        Readers hammer keys whose on-disk payloads have been damaged while
        writers force LRU eviction over the same backend: every get must
        resolve to an artifact or a miss — never an exception — whether the
        corrupt file is deleted by the corruption path or the evictor first.
        """
        store = ArtifactStore(FilesystemBackend(tmp_path), max_bytes=2048,
                              memory_entries=0)
        victims = [f"{index:x}" * 16 for index in range(4)]
        for key in victims:
            store.put(key, {"key": key})
        for path in tmp_path.rglob("*"):
            if path.is_file():
                path.write_bytes(b"garbage")
        errors = []

        def reader():
            try:
                for _ in range(40):
                    for key in victims:
                        assert store.get(key) is None
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        def writer(slot):
            try:
                for index in range(40):
                    store.put(f"{slot}{index:02d}" + "e" * 61,
                              list(range(100)))
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = ([threading.Thread(target=reader) for _ in range(3)]
                   + [threading.Thread(target=writer, args=(slot,))
                      for slot in range(2)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert errors == []
        stats = store.stats()
        # Every victim was either caught corrupt (deleted + counted) by a
        # reader or evicted first; none survived as a readable artifact.
        assert stats.corrupted >= 1
        assert stats.io_errors == 0  # races are not IO errors
        for key in victims:
            assert store.get(key) is None

    def test_io_errors_are_counted_and_degrade(self, tmp_path, caplog):
        """A backend that starts raising degrades the store to uncached."""
        import logging
        store = default_store(tmp_path)
        store.put("a" * 64, {"v": 1})

        class DeadBackend:
            def __getattr__(self, name):
                def boom(*args, **kwargs):
                    raise OSError("disk gone")
                return boom

        store.backend = DeadBackend()
        store._memory.clear()
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            assert store.get("a" * 64) is None
        assert any("degrading to uncached" in record.message
                   for record in caplog.records)
        store.put("b" * 64, {"v": 2})     # skipped, silently
        assert store.get("b" * 64) == {"v": 2}  # from the memory layer
        assert store.contains("c" * 64) is False
        assert store.total_bytes() == 0
        stats = store.stats()
        assert stats.io_errors >= 3
        assert stats.as_dict()["session"]["io_errors"] == stats.io_errors

    def test_stats_counts_failures_from_its_own_walk(self, tmp_path):
        """``stats()`` publishes the walk's own IO failure in the snapshot it
        returns (the final counter read happens under the lock, after the
        walk has recorded its error)."""
        store = default_store(tmp_path)
        assert store.stats().io_errors == 0

        class WalkFailsBackend:
            def entries(self):
                raise OSError("walk failed")

        store.backend = WalkFailsBackend()
        stats = store.stats()
        assert stats.io_errors == 1  # the failed walk itself is included
        assert stats.entries == 0


class TestPayloadFormat:
    """Bodies are written at gzip level 1; entries written at level 9 still load."""

    @staticmethod
    def _fip_trace():
        # Carries communication graphs, whose pickles must be canonical.
        pattern = FailurePattern.silent(3, faulty=[0], horizon=4)
        return simulate(OptimalFipProtocol(1), 3, [0, 1, 1], pattern)

    @pytest.mark.parametrize("serializer", ["pickle", "json"])
    def test_level_9_payload_decodes_to_the_same_object(self, serializer, tmp_path):
        artifact = self._fip_trace() if serializer == "pickle" else {"rows": [1, 2], "ok": True}
        body = (pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL) if serializer == "pickle"
                else json.dumps(artifact, sort_keys=True).encode("utf-8"))
        legacy = b"\n".join([store_module.MAGIC, b"trace", serializer.encode("utf-8"),
                             gzip.compress(body, compresslevel=9, mtime=0)])
        assert store_module._decode(legacy) == artifact
        store = default_store(tmp_path)
        store.backend.put("9" * 64, legacy)
        assert default_store(tmp_path).get("9" * 64) == artifact

    def test_encoding_is_deterministic_at_level_1(self):
        trace = self._fip_trace()
        payload = store_module._encode(trace, "trace", "pickle")
        assert store_module._encode(trace, "trace", "pickle") == payload
        # An equal artifact built separately encodes to the same bytes.
        assert store_module._encode(self._fip_trace(), "trace", "pickle") == payload
        body = payload.split(b"\n", 3)[3]
        assert body[8] == 4  # RFC 1952 XFL: 4 = fastest compression (level 1)
        assert store_module._decode(payload) == trace


# --------------------------------------------------------------------------- resolution


class TestResolution:
    def test_none_is_off_by_default(self, monkeypatch):
        monkeypatch.delenv(store_module.CACHE_ENABLE_ENV, raising=False)
        assert resolve_store(None) is None

    def test_env_opt_in(self, monkeypatch, tmp_path):
        monkeypatch.setenv(store_module.CACHE_ENABLE_ENV, "1")
        monkeypatch.setenv(store_module.CACHE_DIR_ENV, str(tmp_path / "env-cache"))
        store = resolve_store(None)
        assert isinstance(store, ArtifactStore)
        assert store.backend.root == tmp_path / "env-cache"

    def test_path_opens_filesystem_store(self, tmp_path):
        store = resolve_store(tmp_path / "somewhere")
        assert isinstance(store.backend, FilesystemBackend)

    def test_store_passes_through(self):
        store = ArtifactStore()
        assert resolve_store(store) is store

    def test_path_resolution_is_memoized(self, tmp_path):
        # Repeated store= path arguments must share one handle (and with it
        # the memory LRU and session counters), not reopen the store per call.
        first = resolve_store(tmp_path / "shared")
        second = resolve_store(str(tmp_path / "shared"))
        assert first is second

    def test_env_opt_in_is_memoized(self, monkeypatch, tmp_path):
        monkeypatch.setenv(store_module.CACHE_ENABLE_ENV, "1")
        monkeypatch.setenv(store_module.CACHE_DIR_ENV, str(tmp_path / "env-shared"))
        assert resolve_store(None) is resolve_store(None)

    def test_junk_rejected(self):
        with pytest.raises(StoreError, match="not a store"):
            resolve_store(42)

    def test_default_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(store_module.CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        monkeypatch.delenv(store_module.CACHE_DIR_ENV)
        assert default_cache_dir().name == "repro-eba"

    def test_max_bytes_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(store_module.CACHE_MAX_BYTES_ENV, "12345")
        assert default_store(tmp_path).max_bytes == 12345
        monkeypatch.setenv(store_module.CACHE_MAX_BYTES_ENV, "not-a-number")
        with pytest.raises(StoreError, match="byte count"):
            default_store(tmp_path)


# --------------------------------------------------------------------------- concurrency


def _process_writer(root: str, key: str, worker: int, rounds: int) -> bool:
    """Hammer one key from a separate process (top-level for picklability)."""
    store = default_store(root)
    for round_index in range(rounds):
        store.put(key, {"worker": worker, "round": round_index}, kind="race")
        if store.get(key) is None:
            return False
    return True


class TestConcurrentAccess:
    """The store is shared by HTTP handler threads, worker threads, and
    (through the filesystem backend) independent processes — the substrate
    the service's coalescing sits on, so the races are pinned here."""

    def test_threads_writing_the_same_key_race_safely(self, tmp_path):
        store = default_store(tmp_path)
        key = "a" * 64
        payloads = [{"writer": index, "data": list(range(50))}
                    for index in range(8)]
        errors = []

        def write(index):
            try:
                for _ in range(25):
                    store.put(key, payloads[index], kind="race")
                    value = store.get(key)
                    assert value in payloads  # never a torn/interleaved value
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(index,))
                   for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert store.get(key) in payloads
        assert store.stats().entries == 1

    def test_threads_mixing_puts_gets_and_eviction(self, tmp_path):
        """Eviction + memory-LRU bookkeeping under contention: the shared
        OrderedDict and counters sit behind the store's lock."""
        store = default_store(tmp_path)
        store.max_bytes = 4096  # small enough to evict constantly
        errors = []

        def churn(worker):
            try:
                for index in range(40):
                    key = f"{worker:02d}{index % 5:062d}"
                    store.put(key, {"worker": worker, "index": index})
                    store.get(key)
                    store.contains(key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(worker,))
                   for worker in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        stats = store.stats()  # coherent snapshot, no negative counters
        assert stats.puts == 6 * 40 and stats.total_bytes >= 0

    def test_processes_writing_the_same_key_race_safely(self, tmp_path):
        """Two processes, one filesystem key: temp-file + os.replace writes
        mean readers only ever see complete payloads."""
        import multiprocessing
        context = multiprocessing.get_context("fork")
        key = "b" * 64
        with context.Pool(2) as pool:
            outcomes = pool.starmap(
                _process_writer,
                [(str(tmp_path), key, worker, 20) for worker in range(2)])
        assert outcomes == [True, True]
        final = default_store(tmp_path).get(key)
        assert final is not None and final["round"] == 19

    def test_concurrent_caching_executor_runs_share_one_store(self, tmp_path):
        """Two threads executing the identical run through CachingExecutor:
        both get the correct trace and the store ends with one entry."""
        from repro.api import SerialExecutor
        from repro.protocols import MinProtocol
        from repro.failures import FailurePattern as Pattern
        from repro.store import CachingExecutor
        store = default_store(tmp_path)
        task = (MinProtocol(1), 3, (1, 0, 1), Pattern.failure_free(3), None)
        reference = SerialExecutor().run_tasks([task])[0]
        results = [None, None]

        def run(slot):
            results[slot] = CachingExecutor(store).run_tasks([task])[0]

        threads = [threading.Thread(target=run, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert results[0] == results[1] == reference
        assert store.stats().by_kind == {"run": 1}
