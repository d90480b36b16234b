"""Unit tests for interpreted systems and context descriptors."""

import dataclasses
import pickle
import random

import numpy as np
import pytest

from repro.core.errors import ModelCheckingError
from repro.failures import SendingOmissionModel
from repro.logic import words
from repro.protocols import BasicProtocol, MinProtocol
from repro.systems import (
    AgentPartition,
    InterpretedSystem,
    Point,
    build_system,
    gamma_basic,
    gamma_fip,
    gamma_min,
)


class TestBuildSystem:
    def test_runs_cover_patterns_times_preferences(self):
        model = SendingOmissionModel(n=3, t=1)
        patterns = list(model.enumerate(horizon=1))
        system = build_system(MinProtocol(1), 3, horizon=1, patterns=patterns)
        assert len(system.runs) == len(patterns) * 8
        assert system.horizon == 1
        assert system.protocol_name == "P_min"

    def test_points_enumerate_all_times(self):
        model = SendingOmissionModel(n=3, t=0)
        system = build_system(MinProtocol(0), model.n, 2, model.enumerate(2))
        assert len(system.points) == len(system.runs) * 3
        assert Point(0, 0) in system.points

    def test_local_state_lookup(self):
        model = SendingOmissionModel(n=3, t=0)
        system = build_system(MinProtocol(0), model.n, 2, model.enumerate(2))
        state = system.local_state(Point(0, 1), 2)
        assert state.time == 1
        assert state.agent == 2

    def test_nonfaulty_lookup(self):
        model = SendingOmissionModel(n=3, t=1)
        system = build_system(MinProtocol(1), model.n, 1, model.enumerate(1))
        for run_index, run in enumerate(system.runs):
            assert system.nonfaulty(Point(run_index, 0)) == run.nonfaulty

    def test_wrong_length_preference_vector_rejected(self):
        model = SendingOmissionModel(n=3, t=1)
        patterns = [model.failure_free()]
        with pytest.raises(ModelCheckingError, match=r"\(0, 1\)"):
            build_system(MinProtocol(1), 3, horizon=1, patterns=patterns,
                         preference_vectors=[(0, 1, 1), (0, 1)])


class TestDenseIndexing:
    def test_point_index_round_trip(self):
        model = SendingOmissionModel(n=3, t=0)
        system = build_system(MinProtocol(0), model.n, 2, model.enumerate(2))
        for index, point in enumerate(system.points):
            assert system.point_index(point) == index
            assert system.point_at(index) == point
        assert system.num_points == len(system.points)
        assert np.array_equal(system.full_words(), words.full_words(system.num_points))

    def test_class_words_partition_the_full_set(self):
        model = SendingOmissionModel(n=3, t=1)
        system = build_system(MinProtocol(1), model.n, 2, model.enumerate(2))
        for agent in range(3):
            partition = system.partition(agent)
            union = words.zero_words(system.num_points)
            for row in partition.class_words():
                assert not (union & row).any()  # disjoint
                union |= row
            assert np.array_equal(union, system.full_words())
            # The first index is the lowest set bit of the class row.
            for row, first in zip(partition.class_words(),
                                  partition.class_first_indices):
                assert words.indices_of_words(row, system.num_points)[0] == first
            assert system.class_id_array(agent) is partition.class_ids

    def test_atom_words_match_pointwise_definitions(self):
        model = SendingOmissionModel(n=3, t=1)
        system = build_system(MinProtocol(1), model.n, 2, model.enumerate(2))

        def members(atom):
            return words.unpack_words(atom, system.num_points).astype(bool).tolist()

        for agent in range(3):
            nonfaulty = members(system.nonfaulty_words(agent))
            init_zero = members(system.init_words(agent, 0))
            undecided = members(system.decided_words(agent, None))
            for index, point in enumerate(system.points):
                assert nonfaulty[index] == (agent in system.nonfaulty(point))
                assert init_zero[index] == (system.run(point).preferences[agent] == 0)
                assert undecided[index] == (
                    system.local_state(point, agent).decided is None)
        for time in range(system.horizon + 1):
            assert members(system.time_words(time)) == [
                point.time == time for point in system.points]
        assert not system.time_words(system.horizon + 5).any()


def _naive_words(system, predicate):
    """Per-point reference: pack the bit of every point satisfying ``predicate``."""
    return words.pack_bits(np.array([predicate(point) for point in system.points],
                                    dtype=bool))


def _odd_sized_system(num_patterns, num_preferences, horizon=2):
    """A system whose point count is deliberately not a multiple of 8 or 64."""
    model = SendingOmissionModel(n=3, t=1)
    patterns = list(model.enumerate(horizon))[:num_patterns]
    preferences = [(0, 0, 1), (1, 1, 1), (0, 1, 0), (1, 0, 1), (0, 0, 0)][:num_preferences]
    system = build_system(BasicProtocol(1), 3, horizon=horizon, patterns=patterns,
                          preference_vectors=preferences)
    assert system.num_points % 8 != 0
    return system


class TestAtomWordsAgainstPerPointReference:
    """The numpy-built atom word arrays equal a naive per-point reference."""

    @pytest.mark.parametrize("num_patterns, num_preferences", [(5, 3), (23, 5), (1, 1)])
    def test_words_equal_reference(self, num_patterns, num_preferences):
        system = _odd_sized_system(num_patterns, num_preferences)
        assert np.array_equal(system.full_words(), _naive_words(system, lambda point: True))
        for time in range(-1, system.stride + 1):
            assert np.array_equal(system.time_words(time), _naive_words(
                system, lambda point: point.time == time))
        for agent in range(system.n):
            assert np.array_equal(system.nonfaulty_words(agent), _naive_words(
                system, lambda point: agent in system.run(point).nonfaulty))
            for value in (0, 1):
                assert np.array_equal(system.init_words(agent, value), _naive_words(
                    system, lambda point: system.run(point).preferences[agent] == value))
            for value in (None, 0, 1):
                assert np.array_equal(system.decided_words(agent, value), _naive_words(
                    system, lambda point: system.local_state(point, agent).decided == value))


def _per_run_words(system, run_flag):
    """The atom definition over the traces: every point of each flagged run."""
    return words.pack_bits(np.repeat([run_flag(trace) for trace in system.runs],
                                     system.stride).astype(bool))


def _assert_atoms_match_runs(system):
    for agent in range(system.n):
        assert np.array_equal(system.nonfaulty_words(agent), _per_run_words(
            system, lambda trace: agent not in trace.pattern.faulty))
        for value in (0, 1):
            assert np.array_equal(system.init_words(agent, value), _per_run_words(
                system, lambda trace: trace.preferences[agent] == value))


class TestAtomMasksFromTheRunTable:
    """``nonfaulty`` and ``init`` atoms read the run table; they equal the per-run definition."""

    CONTEXTS = {
        "min-so": (MinProtocol, gamma_min, "sending-omission"),
        "basic-ro": (BasicProtocol, gamma_basic, "receive-omission"),
    }

    @pytest.fixture(params=sorted(CONTEXTS))
    def built(self, request, n3_system):
        protocol, context, model = self.CONTEXTS[request.param]
        return n3_system(protocol(1), context(3, 1, failure_model=model))

    def test_built_system(self, built):
        _assert_atoms_match_runs(built)

    def test_pickle_round_trip(self, built):
        _assert_atoms_match_runs(pickle.loads(pickle.dumps(built)))

    def test_shuffled_subset_with_equal_but_distinct_entries(self, built):
        rng = random.Random(3)
        runs = rng.sample(built.runs, len(built.runs) // 3)
        # Every other run gets fresh copies of its preference vector and
        # pattern, so the table lists equal vectors and patterns more than once.
        runs = [dataclasses.replace(trace, preferences=tuple(list(trace.preferences)),
                                    pattern=pickle.loads(pickle.dumps(trace.pattern)))
                if index % 2 else trace
                for index, trace in enumerate(runs)]
        system = InterpretedSystem(n=built.n, horizon=built.horizon, runs=runs)
        table = system.run_table()
        assert len(table.preferences) > len(set(table.preferences))
        assert len(table.patterns) > len(set(table.patterns))
        _assert_atoms_match_runs(system)


#: Each word atom by name: a function of a built system returning it.
ATOMS = {
    "full": lambda system: system.full_words(),
    "time": lambda system: system.time_words(1),
    "nonfaulty": lambda system: system.nonfaulty_words(2),
    "init": lambda system: system.init_words(0, 1),
    "decided": lambda system: system.decided_words(1, None),
}


class TestAtomWordCache:
    """Each atom is packed once, into one cache, and handed out read-only."""

    @pytest.mark.parametrize("atom", sorted(ATOMS))
    def test_atom_is_packed_once_and_read_only(self, atom):
        system = _odd_sized_system(5, 3)
        first = ATOMS[atom](system)
        assert ATOMS[atom](system) is first
        assert [view for view in system._word_views.values() if view is first] == [first]
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0
        scratch = first.copy()
        scratch &= 0
        assert not scratch.any()
        assert np.array_equal(ATOMS[atom](system), first)


class TestAgentPartition:
    def test_pickle_round_trip_preserves_equality(self):
        system = _odd_sized_system(23, 5)
        for agent in range(3):
            partition = system.partition(agent)
            copy = pickle.loads(pickle.dumps(partition))
            assert copy == partition
            assert copy.class_ids.dtype == partition.class_ids.dtype
            assert not copy.class_ids.flags.writeable
            assert pickle.dumps(copy) == pickle.dumps(partition)

    def test_equality_compares_dtype_and_contents(self):
        partition = _odd_sized_system(5, 3).partition(0)
        widened = AgentPartition(partition.class_ids.astype(np.uint32),
                                 partition.class_states, partition.class_first_indices)
        assert widened != partition
        changed = partition.class_ids.copy()
        changed[0] = 1  # point 0 always opens class 0
        assert AgentPartition(changed, partition.class_states,
                              partition.class_first_indices) != partition
        assert partition != "not a partition"

    def test_equivalence_classes_group_points_by_local_state(self):
        system = _odd_sized_system(23, 5)
        for agent in range(3):
            naive = {}
            for point in system.points:
                naive.setdefault(system.local_state(point, agent), []).append(point)
            classes = system.equivalence_classes(agent)
            assert list(classes) == list(naive)
            assert classes == {state: tuple(points) for state, points in naive.items()}

    @pytest.mark.parametrize("num_classes, dtype", [
        (0, np.uint8), (256, np.uint8), (257, np.uint16),
        (65_536, np.uint16), (65_537, np.uint32),
    ])
    def test_class_id_dtype_is_the_narrowest_that_fits(self, num_classes, dtype):
        assert words.class_id_dtype(num_classes) == dtype


class TestEquivalenceClasses:
    def test_classes_partition_points(self):
        model = SendingOmissionModel(n=3, t=1)
        system = build_system(MinProtocol(1), model.n, 1, model.enumerate(1))
        classes = system.equivalence_classes(0)
        covered = [point for points in classes.values() for point in points]
        assert sorted(covered) == sorted(system.points)

    def test_indistinguishable_points_share_local_state(self):
        model = SendingOmissionModel(n=3, t=1)
        system = build_system(MinProtocol(1), model.n, 1, model.enumerate(1))
        point = Point(3, 1)
        peers = system.indistinguishable(1, point)
        assert point in peers
        state = system.local_state(point, 1)
        assert all(system.local_state(peer, 1) == state for peer in peers)

    def test_synchrony_keeps_times_separate(self):
        model = SendingOmissionModel(n=3, t=1)
        system = build_system(MinProtocol(1), model.n, 2, model.enumerate(2))
        for agent in range(3):
            for points in system.equivalence_classes(agent).values():
                assert len({point.time for point in points}) == 1


class TestContexts:
    def test_gamma_min_defaults(self):
        context = gamma_min(4, 1)
        assert context.n == 4
        assert context.t == 1
        assert context.horizon == 3
        assert context.name == "gamma_min"
        assert "gamma_min" in repr(context)

    def test_gamma_basic_and_fip_names(self):
        assert gamma_basic(3, 1).name == "gamma_basic"
        assert gamma_fip(3, 1).name == "gamma_fip"

    def test_context_builds_system_for_protocol(self):
        context = gamma_basic(3, 1, horizon=2, max_faulty_enumerated=0)
        system = context.build_system(BasicProtocol(1))
        assert system.protocol_name == "P_basic"
        assert len(system.runs) == 8

    def test_max_faulty_cap_restricts_patterns(self):
        capped = gamma_min(3, 1, max_faulty_enumerated=0)
        assert len(list(capped.patterns())) == 1
        uncapped = gamma_min(3, 1)
        assert len(list(uncapped.patterns())) > 1

    def test_explicit_horizon_override(self):
        assert gamma_min(3, 1, horizon=5).horizon == 5
