"""Tests for :func:`repro.core.allocation.bulk_allocation`, the cyclic-GC pause.

The pause is re-entrant and shared across threads: the collector stays off
until the last block exits, and then returns to the state the first block
found.  The two library call sites — system construction and store unpickling
— must restore that state on their failure paths too.
"""

from __future__ import annotations

import gc
import gzip
import pickle
import sys
import threading

import pytest

from repro.core.allocation import bulk_allocation
from repro.core.cancel import cancellable
from repro.protocols import MinProtocol
from repro.store import store as store_module
from repro.systems import gamma_min


@pytest.fixture(autouse=True)
def _restore_gc():
    """Every test starts with the collector enabled and leaves it as found."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestBulkAllocation:
    def test_pauses_and_restores(self):
        with bulk_allocation():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_nesting_restores_only_at_the_outermost_exit(self):
        with bulk_allocation():
            with bulk_allocation():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_when_the_block_raises(self):
        with pytest.raises(KeyError):
            with bulk_allocation():
                raise KeyError("boom")
        assert gc.isenabled()

    def test_caller_that_disabled_gc_keeps_it_disabled(self):
        gc.disable()
        with bulk_allocation():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_overlapping_threads_keep_gc_off_until_the_last_exits(self):
        entered, release = threading.Event(), threading.Event()
        seen = {}

        def worker():
            with bulk_allocation():
                entered.set()
                release.wait(timeout=30)
            seen["after worker exit"] = gc.isenabled()

        thread = threading.Thread(target=worker)
        thread.start()
        assert entered.wait(timeout=30)
        with bulk_allocation():
            release.set()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert seen["after worker exit"] is False
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_stress_many_threads_never_see_gc_on_inside_a_block(self):
        """More threads than cores, switching often: a lost update to the
        shared depth would leave GC on inside a block or off after all exit."""
        import repro.core.allocation as allocation
        violations = []
        start = threading.Barrier(8, timeout=30)

        def worker():
            start.wait()
            for _ in range(300):
                with bulk_allocation():
                    if gc.isenabled():
                        violations.append("enabled inside a block")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert violations == []
        assert allocation._depth == 0
        assert gc.isenabled()


class _CancellingCheck:
    """A cancel-scope check that cancels the build on its second call."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("cancelled")


class TestCallSites:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_cancelled_build_restores_gc_state(self, monkeypatch, enabled):
        from repro.systems import interpreted
        monkeypatch.setattr(interpreted, "BUILD_CHUNK_PATTERNS", 16)
        if not enabled:
            gc.disable()
        check = _CancellingCheck()
        with cancellable(check), pytest.raises(RuntimeError, match="cancelled"):
            gamma_min(3, 1).build_system(MinProtocol(1))
        assert check.calls == 2
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_corrupt_pickle_restores_gc_state(self, enabled):
        payload = b"\n".join([store_module.MAGIC, b"system", b"pickle",
                              gzip.compress(b"\x80\x05not a pickle")])
        if not enabled:
            gc.disable()
        with pytest.raises(pickle.UnpicklingError):
            store_module._decode(payload)
        assert gc.isenabled() is enabled
