"""The run-space scan fan-out: shared-memory sharding vs the in-process kernel.

``scan_runs`` must return byte-identical arrays whether the kernel runs
in-process or sharded across forked workers — the same determinism contract
the run executors keep, extended to the check phase.  The development
and CI boxes may have few cores, so the forked path is *forced* here (the
fork threshold is monkeypatched away) rather than left to the heuristics.
"""

import numpy as np
import pytest

from repro.api import scans
from repro.api.executors import ParallelExecutor
from repro.api.scans import fork_available, scan_runs
from repro.kbp.reference import chain_receipt_table
from repro.kbp.safety import _chain_receipt_kernel, check_safety
from repro.logic.words import blocks
from repro.protocols import MinProtocol
from repro.systems import gamma_min


@pytest.fixture(scope="module")
def system():
    return gamma_min(3, 1).build_system(MinProtocol(1))


class TestBlocks:
    def test_blocks_cover_the_range_contiguously(self):
        for num_items in (0, 1, 5, 64, 100, 2048):
            for num_blocks in (1, 2, 7, 64):
                ranges = blocks(num_items, num_blocks)
                if num_items == 0:
                    assert ranges == []
                    continue
                assert len(ranges) <= num_blocks
                assert ranges[0][0] == 0
                assert ranges[-1][1] == num_items
                for (_, stop), (start, _) in zip(ranges, ranges[1:]):
                    assert stop == start
                assert all(start < stop for start, stop in ranges)

    def test_more_blocks_than_items_degrades_to_singletons(self):
        assert blocks(3, 16) == [(0, 1), (1, 2), (2, 3)]


class TestChainReceiptKernel:
    def test_kernel_rows_match_the_dict_table(self, system):
        table = chain_receipt_table(system)
        rows = _chain_receipt_kernel(system, 0, len(system.runs))
        assert rows.shape == (len(system.runs), system.n)
        for run_index in range(len(system.runs)):
            for agent in range(system.n):
                expected = table.get((run_index, agent), -1)
                assert int(rows[run_index, agent]) == expected

    def test_kernel_is_range_local(self, system):
        whole = _chain_receipt_kernel(system, 0, len(system.runs))
        lo = _chain_receipt_kernel(system, 0, 10)
        hi = _chain_receipt_kernel(system, 10, len(system.runs))
        assert np.array_equal(np.concatenate([lo, hi]), whole)


class TestScanRuns:
    def test_serial_scan_matches_direct_kernel_call(self, system):
        direct = _chain_receipt_kernel(system, 0, len(system.runs))
        scanned = scan_runs(system, _chain_receipt_kernel,
                            row_shape=(system.n,), dtype="int16", workers=1)
        assert np.array_equal(scanned, direct)

    @pytest.mark.skipif(not fork_available(), reason="no fork start method")
    def test_forked_scan_is_byte_identical_to_serial(self, system, monkeypatch):
        monkeypatch.setattr(scans, "MIN_RUNS_TO_FORK", 0)
        serial = scan_runs(system, _chain_receipt_kernel,
                           row_shape=(system.n,), dtype="int16", workers=1)
        for workers in (2, 3):
            forked = scan_runs(system, _chain_receipt_kernel,
                               row_shape=(system.n,), dtype="int16",
                               workers=workers)
            assert forked.tobytes() == serial.tobytes()

    @pytest.mark.skipif(not fork_available(), reason="no fork start method")
    def test_kernel_shape_mismatch_is_an_error(self, system, monkeypatch):
        monkeypatch.setattr(scans, "MIN_RUNS_TO_FORK", 0)

        def bad_kernel(sys_, start, stop):
            return np.zeros((stop - start + 1,), dtype=np.int16)

        with pytest.raises(Exception, match="shape"):
            scan_runs(system, bad_kernel, row_shape=(), dtype="int16", workers=2)

    def test_scalar_rows_work(self, system):
        def run_length_kernel(sys_, start, stop):
            return np.asarray([sys_.runs[index].horizon
                               for index in range(start, stop)], dtype=np.int16)

        result = scan_runs(system, run_length_kernel, row_shape=(), dtype="int16",
                           workers=1)
        assert result.shape == (len(system.runs),)
        assert set(result.tolist()) == {system.horizon}


class TestExecutorDispatch:
    @pytest.mark.skipif(not fork_available(), reason="no fork start method")
    def test_sharded_safety_scan_report_is_identical(self, system, monkeypatch):
        """check_safety with a ParallelExecutor = check_safety serial."""
        monkeypatch.setattr(scans, "MIN_RUNS_TO_FORK", 0)
        context = gamma_min(3, 1)
        baseline = check_safety(MinProtocol(1), context, system=system)
        sharded = check_safety(MinProtocol(1), context, system=system,
                               executor=ParallelExecutor(max_workers=2))
        assert sharded.points_checked == baseline.points_checked
        assert sharded.clause1_checks == baseline.clause1_checks
        assert sharded.clause2_checks == baseline.clause2_checks
        assert sharded.violations == baseline.violations
