"""The run table: a system's runs as shared-object tables plus index arrays.

:class:`~repro.simulation.batch.RunTable` is what a built system pickles
from and what the Definition 6.2 receipt kernel reads.  These tests pin:

* the store round trip of built systems — per-trace pickles, partitions and
  the number of distinct round records survive ``_encode``/``_decode``, and
  re-encoding the decoded system gives the same bytes;
* systems whose runs have several headers survive it too, and a decoded
  system packs the same word atoms as the original;
* the encoding is the same in every process (no ``id()``-ordered table);
* the table ``build_system`` hands over and the one a system computes from
  its traces give the same receipts and both round-trip;
* the table's own shape: smallest index dtypes, shared names stored once.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.kbp.safety import _chain_receipt_kernel
from repro.protocols import BasicProtocol, MinProtocol, OptimalFipProtocol
from repro.simulation.batch import RunTable
from repro.store import store as store_module
from repro.systems import (
    InterpretedSystem,
    gamma_basic,
    gamma_fip,
    gamma_min,
)

#: ``(protocol, context, n, failure model)`` of every round-tripped system.
SYSTEMS = {
    **{f"{name}-{model}-n3": (protocol, context, 3, model)
       for name, protocol, context in (("min", MinProtocol, gamma_min),
                                       ("basic", BasicProtocol, gamma_basic))
       for model in ("so", "ro", "go")},
    "fip-so-n3": (OptimalFipProtocol, gamma_fip, 3, "so"),
    "min-so-n4": (MinProtocol, gamma_min, 4, "so"),
}


def _build(case, n3_system):
    protocol, context, n, model = SYSTEMS[case]
    if n == 3:
        return n3_system(protocol(1), context(n, 1, failure_model=model))
    return context(n, 1, failure_model=model).build_system(protocol(1))


def _round_trip(system):
    return store_module._decode(store_module._encode(system, "system", "pickle"))


def _trace_bytes(system, step=1):
    return [pickle.dumps(trace) for trace in system.runs[::step]]


def _distinct_records(system):
    return len({id(record) for trace in system.runs for record in trace.rounds})


def _partitions(system):
    return [system.partition(agent) for agent in range(system.n)]


@pytest.mark.parametrize("case", sorted(SYSTEMS))
def test_built_system_round_trips(case, n3_system):
    system = _build(case, n3_system)
    clone = _round_trip(system)
    assert (clone.n, clone.horizon, clone.protocol_name) == (
        system.n, system.horizon, system.protocol_name)
    # The whole run list pickles identically: every trace, and the sharing
    # between traces.  Per-trace pickles are compared on a ~1 000-run sample
    # (all 98 312 GO(1) runs would take seconds).
    assert pickle.dumps(clone.runs) == pickle.dumps(system.runs)
    step = max(1, len(system.runs) // 1000)
    assert _trace_bytes(clone, step) == _trace_bytes(system, step)
    assert _partitions(clone) == _partitions(system)
    assert _distinct_records(clone) == _distinct_records(system)
    assert _distinct_records(clone) == len(system.run_table().records)
    encoded = pickle.dumps(system)
    assert pickle.dumps(pickle.loads(encoded)) == encoded


def test_runs_with_several_headers_round_trip():
    """A system assembled from two protocols' traces keeps a header per run."""
    runs_min = gamma_min(3, 1).build_system(MinProtocol(1)).runs
    runs_basic = gamma_basic(3, 1).build_system(BasicProtocol(1)).runs
    mixed = [trace for pair in zip(runs_min[:40], runs_basic[:40]) for trace in pair]
    system = InterpretedSystem(n=3, horizon=3, runs=mixed)
    table = system.run_table()
    assert len(table.headers) == 2
    assert table.run_headers.tolist() == [0, 1] * 40
    clone = _round_trip(system)
    assert [trace.protocol_name for trace in clone.runs] == [
        trace.protocol_name for trace in mixed]
    assert _trace_bytes(clone) == _trace_bytes(system)


def test_round_trip_rebuilds_every_word_atom(n3_system):
    """Atoms are not pickled; the decoded system packs equal ones from its table."""
    system = n3_system(MinProtocol(1), gamma_min(3, 1))

    def atoms(built):
        return ([built.full_words()]
                + [built.time_words(time) for time in range(built.stride)]
                + [atom for agent in range(built.n) for atom in (
                    built.nonfaulty_words(agent), built.init_words(agent, 0),
                    built.init_words(agent, 1), built.decided_words(agent, None),
                    built.decided_words(agent, 0), built.decided_words(agent, 1))])

    expected = atoms(system)
    clone = _round_trip(system)
    assert not clone._word_views
    assert all(np.array_equal(left, right) for left, right in zip(atoms(clone), expected))
    assert len(atoms(clone)) == len(expected)


#: Encodes the n=3 γ_min system and prints the payload's sha256.
_ENCODE_SCRIPT = """
import hashlib
from repro.protocols import MinProtocol
from repro.store import store
from repro.systems import gamma_min
system = gamma_min(3, 1).build_system(MinProtocol(1))
print(hashlib.sha256(store._encode(system, "system", "pickle")).hexdigest())
"""


def test_encoding_is_identical_in_every_process():
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = set()
    for seed in ("1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", _ENCODE_SCRIPT], env=env,
                                capture_output=True, text=True, check=True, timeout=120)
        digests.add(result.stdout.strip())
    system = gamma_min(3, 1).build_system(MinProtocol(1))
    digests.add(hashlib.sha256(
        store_module._encode(system, "system", "pickle")).hexdigest())
    assert len(digests) == 1


class TestHandedOverAndLazyTables:
    @pytest.fixture(scope="class")
    def built(self, n3_system):
        return n3_system(BasicProtocol(1), gamma_basic(3, 1, failure_model="ro"))

    def test_same_receipts_and_both_round_trip(self, built):
        lazy = InterpretedSystem(n=built.n, horizon=built.horizon, runs=built.runs)
        receipts = _chain_receipt_kernel(built, 0, len(built.runs))
        assert np.array_equal(_chain_receipt_kernel(lazy, 0, len(lazy.runs)), receipts)
        for system in (built, lazy):
            clone = _round_trip(system)
            assert _trace_bytes(clone) == _trace_bytes(built)
            assert _partitions(clone) == _partitions(built)
            assert np.array_equal(_chain_receipt_kernel(clone, 0, len(clone.runs)),
                                  receipts)

    def test_tables_hold_the_same_sharing(self, built):
        handed = built.run_table()
        lazy = RunTable.from_runs(built.runs)
        assert set(map(id, handed.records)) == set(map(id, lazy.records))
        assert len(handed.preferences) == len(lazy.preferences) == 8
        assert len(handed.patterns) == len(lazy.patterns) == len(built.runs) // 8


def test_table_shape():
    system = gamma_min(3, 1).build_system(MinProtocol(1))
    table = system.run_table()
    assert table.num_runs == len(system.runs)
    assert table.lengths == system.horizon
    assert table.record_ids.shape == (system.horizon, len(system.runs))
    # 348 records, 8 preference vectors, 193 patterns: the smallest dtypes.
    assert table.record_ids.dtype == np.uint16
    assert table.run_preferences.dtype == np.uint8
    assert table.run_patterns.dtype == np.uint8
    assert table.headers == ((3, "P_min", system.runs[0].exchange_name),)
    assert table.run_headers is None
    assert not table.record_ids.flags.writeable
    assert [trace.preferences for trace in system.runs] == [
        table.preferences[slot] for slot in table.run_preferences.tolist()]
    rebuilt = table.traces()
    assert [pickle.dumps(trace) for trace in rebuilt] == _trace_bytes(system)
