"""Unit tests for interpreted systems and context descriptors."""

import dataclasses
import pickle
import random

import numpy as np
import pytest

from repro.api import SerialExecutor
from repro.core.errors import ModelCheckingError
from repro.failures import SendingOmissionModel
from repro.logic import words
from repro.protocols import BasicProtocol, MinProtocol
from repro.systems import (
    AgentPartition,
    InterpretedSystem,
    Point,
    PointSet,
    build_system,
    build_system_for_model,
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
        system = build_system_for_model(MinProtocol(0), model, horizon=2)
        assert len(system.points) == len(system.runs) * 3
        assert Point(0, 0) in system.points

    def test_local_state_lookup(self):
        model = SendingOmissionModel(n=3, t=0)
        system = build_system_for_model(MinProtocol(0), model, horizon=2)
        state = system.local_state(Point(0, 1), 2)
        assert state.time == 1
        assert state.agent == 2

    def test_nonfaulty_lookup(self):
        model = SendingOmissionModel(n=3, t=1)
        system = build_system_for_model(MinProtocol(1), model, horizon=1)
        for run_index, run in enumerate(system.runs):
            assert system.nonfaulty(Point(run_index, 0)) == run.nonfaulty

    def test_wrong_length_preference_vector_rejected(self):
        model = SendingOmissionModel(n=3, t=1)
        patterns = [model.failure_free()]
        with pytest.raises(ModelCheckingError, match=r"\(0, 1\)"):
            build_system(MinProtocol(1), 3, horizon=1, patterns=patterns,
                         preference_vectors=[(0, 1, 1), (0, 1)])

    def test_executor_backend_builds_identical_systems(self):
        model = SendingOmissionModel(n=3, t=1)
        patterns = list(model.enumerate(horizon=1))
        serial = build_system(MinProtocol(1), 3, horizon=1, patterns=patterns)
        via_executor = build_system(MinProtocol(1), 3, horizon=1, patterns=patterns,
                                    executor=SerialExecutor())
        assert len(serial.runs) == len(via_executor.runs)
        for left, right in zip(serial.runs, via_executor.runs):
            assert left.preferences == right.preferences
            assert left.pattern == right.pattern
            assert left.rounds == right.rounds


class TestDenseIndexing:
    def test_point_index_round_trip(self):
        model = SendingOmissionModel(n=3, t=0)
        system = build_system_for_model(MinProtocol(0), model, horizon=2)
        for index, point in enumerate(system.points):
            assert system.point_index(point) == index
            assert system.point_at(index) == point
        assert system.num_points == len(system.points)
        assert system.full_mask == (1 << system.num_points) - 1

    def test_class_masks_partition_the_full_mask(self):
        model = SendingOmissionModel(n=3, t=1)
        system = build_system_for_model(MinProtocol(1), model, horizon=2)
        for agent in range(3):
            partition = system.partition(agent)
            union = 0
            for mask in partition.class_masks:
                assert union & mask == 0  # disjoint
                union |= mask
            assert union == system.full_mask
            # The first index is the lowest set bit of the class mask.
            for mask, first in zip(partition.class_masks, partition.class_first_indices):
                assert mask & -mask == 1 << first
            assert system.class_id_array(agent) is partition.class_ids

    def test_atom_masks_match_pointwise_definitions(self):
        model = SendingOmissionModel(n=3, t=1)
        system = build_system_for_model(MinProtocol(1), model, horizon=2)
        for agent in range(3):
            nonfaulty = system.point_set(system.nonfaulty_mask(agent))
            init_zero = system.point_set(system.init_mask(agent, 0))
            undecided = system.point_set(system.decided_mask(agent, None))
            for point in system.points:
                assert (point in nonfaulty) == (agent in system.nonfaulty(point))
                assert (point in init_zero) == (system.run(point).preferences[agent] == 0)
                assert (point in undecided) == (
                    system.local_state(point, agent).decided is None)
        for time in range(system.horizon + 1):
            at_time = system.point_set(system.time_mask(time))
            assert at_time == frozenset(
                point for point in system.points if point.time == time)
        assert system.time_mask(system.horizon + 5) == 0

    def test_point_set_operators(self):
        model = SendingOmissionModel(n=3, t=0)
        system = build_system_for_model(MinProtocol(0), model, horizon=1)
        everything = system.point_set(system.full_mask)
        at_zero = system.point_set(system.time_mask(0))
        at_one = system.point_set(system.time_mask(1))
        assert isinstance(at_zero | at_one, PointSet)
        assert (at_zero | at_one) == everything
        assert (at_zero & at_one) == frozenset()
        assert at_zero.isdisjoint(at_one)
        assert (everything - at_one) == at_zero
        assert (at_zero ^ everything) == at_one
        assert at_zero <= everything
        assert at_zero < everything
        assert everything >= at_one
        assert everything > at_one
        assert not at_zero < at_zero
        assert hash(at_zero) == hash(frozenset(at_zero))
        assert "not a point" not in at_zero


def _naive_mask(system, predicate):
    """Big-int reference: set bit ``index`` for every point satisfying ``predicate``."""
    mask = 0
    for index, point in enumerate(system.points):
        if predicate(point):
            mask |= 1 << index
    return mask


def _odd_sized_system(num_patterns, num_preferences, horizon=2):
    """A system whose point count is deliberately not a multiple of 8 or 64."""
    model = SendingOmissionModel(n=3, t=1)
    patterns = list(model.enumerate(horizon))[:num_patterns]
    preferences = [(0, 0, 1), (1, 1, 1), (0, 1, 0), (1, 0, 1), (0, 0, 0)][:num_preferences]
    system = build_system(BasicProtocol(1), 3, horizon=horizon, patterns=patterns,
                          preference_vectors=preferences)
    assert system.num_points % 8 != 0
    return system


class TestAtomMasksAgainstBigIntReference:
    """The numpy-built atom masks equal a per-point big-int reference."""

    @pytest.mark.parametrize("num_patterns, num_preferences", [(5, 3), (23, 5), (1, 1)])
    def test_masks_equal_reference(self, num_patterns, num_preferences):
        system = _odd_sized_system(num_patterns, num_preferences)
        for time in range(-1, system.stride + 1):
            assert system.time_mask(time) == _naive_mask(
                system, lambda point: point.time == time)
        for agent in range(system.n):
            assert system.nonfaulty_mask(agent) == _naive_mask(
                system, lambda point: agent in system.run(point).nonfaulty)
            for value in (0, 1):
                assert system.init_mask(agent, value) == _naive_mask(
                    system, lambda point: system.run(point).preferences[agent] == value)
            for value in (None, 0, 1):
                assert system.decided_mask(agent, value) == _naive_mask(
                    system, lambda point: system.local_state(point, agent).decided == value)



def _per_run_mask(system, run_flag):
    """The atom-mask definition over the traces: every point of each flagged run."""
    run_points = (1 << system.stride) - 1
    mask = 0
    for run_index, trace in enumerate(system.runs):
        if run_flag(trace):
            mask |= run_points << (run_index * system.stride)
    return mask


def _assert_atoms_match_runs(system):
    for agent in range(system.n):
        assert system.nonfaulty_mask(agent) == _per_run_mask(
            system, lambda trace: agent not in trace.pattern.faulty)
        for value in (0, 1):
            assert system.init_mask(agent, value) == _per_run_mask(
                system, lambda trace: trace.preferences[agent] == value)


class TestAtomMasksFromTheRunTable:
    """``nonfaulty`` and ``init`` masks read the run table; they equal the per-run definition."""

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
        system = build_system_for_model(MinProtocol(1), model, horizon=1)
        classes = system.equivalence_classes(0)
        covered = [point for points in classes.values() for point in points]
        assert sorted(covered) == sorted(system.points)

    def test_indistinguishable_points_share_local_state(self):
        model = SendingOmissionModel(n=3, t=1)
        system = build_system_for_model(MinProtocol(1), model, horizon=1)
        point = Point(3, 1)
        peers = system.indistinguishable(1, point)
        assert point in peers
        state = system.local_state(point, 1)
        assert all(system.local_state(peer, 1) == state for peer in peers)

    def test_synchrony_keeps_times_separate(self):
        model = SendingOmissionModel(n=3, t=1)
        system = build_system_for_model(MinProtocol(1), model, horizon=2)
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
