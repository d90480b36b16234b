"""Unit tests for the epistemic model checker."""

import pytest

from repro.core.errors import ModelCheckingError
from repro.failures import SendingOmissionModel
from repro.logic import (
    Always,
    AlwaysFuture,
    CommonKnowledge,
    DecidedEquals,
    Eventually,
    EveryoneKnows,
    InitEquals,
    IsNonfaulty,
    Knows,
    ModelChecker,
    NONFAULTY,
    Next,
    Not,
    Or,
    Previous,
    TRUE,
    TimeEquals,
    exists_value,
    holds,
    someone_just_decided,
    valid,
)
from repro.protocols import MinProtocol
from repro.systems import Point, build_system, gamma_min


@pytest.fixture(scope="module")
def small_system():
    """The system generated by P_min in gamma_min(3, 1) — built once per module."""
    return gamma_min(3, 1).build_system(MinProtocol(1))


@pytest.fixture(scope="module")
def checker(small_system):
    return ModelChecker(small_system)


class TestAtoms:
    def test_init_equals(self, small_system, checker):
        point = Point(0, 0)
        run = small_system.run(point)
        value = run.preferences[0]
        assert checker.holds(InitEquals(0, value), point)
        assert not checker.holds(InitEquals(0, 1 - value), point)

    def test_time_equals(self, checker):
        assert checker.holds(TimeEquals(0), Point(0, 0))
        assert not checker.holds(TimeEquals(1), Point(0, 0))

    def test_nonfaulty_atom(self, small_system, checker):
        for run_index, run in enumerate(small_system.runs[:10]):
            point = Point(run_index, 0)
            for agent in range(3):
                expected = agent in run.nonfaulty
                assert checker.holds(IsNonfaulty(agent), point) is expected

    def test_true_is_valid(self, checker):
        assert checker.valid(TRUE)


class TestConnectivesAndTemporal:
    def test_negation(self, checker):
        assert checker.valid(Not(Not(TRUE)))

    def test_next_and_previous_are_inverse_where_defined(self, checker):
        # At time 0 this says: at time 1, time-1 was 1 — wait, Previous(TimeEquals(1))
        # at time 1 checks TimeEquals(1) at time 0, which is false; build a
        # correct statement instead: ⃝(time = 1) holds exactly at time 0.
        assert checker.satisfying_points(Next(TimeEquals(1))) == checker.satisfying_points(
            TimeEquals(0))

    def test_previous_is_false_at_time_zero(self, checker):
        assert checker.satisfying_points(Previous(TRUE)) == checker.satisfying_points(
            Not(TimeEquals(0)))

    def test_eventually_everyone_decides(self, small_system, checker):
        all_decided = Or(tuple(
            DecidedEquals(agent, 0) for agent in range(3)
        )) | Or(tuple(DecidedEquals(agent, 1) for agent in range(3)))
        # In every run, eventually some agent has decided (P_min terminates by t+2=3).
        assert checker.valid(Eventually(all_decided))

    def test_always_future_of_decisions(self, small_system, checker):
        # Once decided 0, an agent stays decided 0 (Unique Decision as a formula).
        formula = DecidedEquals(0, 0).implies(AlwaysFuture(DecidedEquals(0, 0)))
        assert checker.valid(formula)

    def test_always_operator(self, checker):
        # ⊡(time >= 0) is trivially valid; encode as ⊡ True.
        assert checker.valid(Always(TRUE))


class TestKnowledge:
    def test_knowledge_is_truthful(self, checker):
        formula = Knows(0, exists_value(3, 0)).implies(exists_value(3, 0))
        assert checker.valid(formula)

    def test_positive_introspection(self, checker):
        inner = Knows(1, exists_value(3, 0))
        assert checker.valid(inner.implies(Knows(1, inner)))

    def test_agents_know_their_own_initial_value(self, checker):
        formula = InitEquals(2, 0).implies(Knows(2, InitEquals(2, 0)))
        assert checker.valid(formula)

    def test_agents_do_not_know_others_initial_values_at_time_zero(self, checker):
        formula = TimeEquals(0).implies(Not(Knows(0, InitEquals(1, 0))))
        assert checker.valid(formula)

    def test_knowing_just_decided_requires_message(self, checker):
        # K_i(someone just decided 0) can only hold after round 1.
        formula = TimeEquals(0).implies(Not(Knows(0, someone_just_decided(3, 0))))
        assert checker.valid(formula)


class TestGroupKnowledge:
    def test_everyone_knows_weaker_than_common_knowledge(self, checker):
        phi = exists_value(3, 1)
        ck = CommonKnowledge(NONFAULTY, phi)
        ek = EveryoneKnows(NONFAULTY, phi)
        assert checker.satisfying_points(ck) <= checker.satisfying_points(ek)

    def test_common_knowledge_implies_truth(self, checker):
        phi = exists_value(3, 0)
        assert checker.valid(CommonKnowledge(NONFAULTY, phi).implies(phi))

    def test_common_knowledge_of_faults_never_arises_in_gamma_min(self, checker):
        # In the minimal context agents never learn who is faulty, so the
        # nonfaulty agents never attain common knowledge that a specific agent
        # is faulty (this is why P1 degenerates to P0 there).
        for agent in range(3):
            formula = Not(CommonKnowledge(NONFAULTY, Not(IsNonfaulty(agent))))
            assert checker.valid(formula)

    def test_explicit_group_membership(self, checker):
        phi = exists_value(3, 1)
        group = frozenset({0, 1})
        assert checker.satisfying_points(CommonKnowledge(group, phi)) <= \
            checker.satisfying_points(Knows(0, phi))

    def test_unknown_group_specification_rejected(self, checker):
        with pytest.raises(ModelCheckingError):
            checker.group_members("Z", Point(0, 0))


class TestHelpers:
    def test_there_is_no_backend_selector(self, small_system):
        with pytest.raises(TypeError):
            ModelChecker(small_system, backend="int")

    def test_counterexamples_listed(self, checker):
        failures = checker.counterexamples(TimeEquals(0), limit=3)
        assert len(failures) == 3
        assert all(point.time != 0 for point in failures)

    def test_counterexamples_follow_system_point_order(self, small_system, checker):
        # Regression: counterexamples must come back in the system's
        # deterministic point order (run-major, time-minor) regardless of the
        # underlying set representation.
        formula = TimeEquals(1)
        expected = [point for point in small_system.points if point.time != 1]
        assert checker.counterexamples(formula, limit=7) == expected[:7]
        assert checker.counterexamples(formula, limit=10**9) == expected

    def test_satisfying_points_is_a_frozenset_of_points(self, small_system, checker):
        points = checker.satisfying_points(Not(TimeEquals(0)))
        assert type(points) is frozenset
        assert points == frozenset(
            point for point in small_system.points if point.time != 0)
        assert all(type(point) is Point for point in points)

    def test_module_level_helpers(self, small_system):
        assert valid(small_system, TRUE)
        assert holds(small_system, TimeEquals(0), Point(0, 0))

    def test_point_sets_interoperate_with_frozensets(self, small_system, checker):
        at_zero = checker.satisfying_points(TimeEquals(0))
        explicit = frozenset(point for point in small_system.points if point.time == 0)
        assert at_zero == explicit
        assert explicit == frozenset(at_zero)
        assert (at_zero & explicit) == explicit
        assert frozenset(small_system.points) - at_zero == frozenset(
            checker.satisfying_points(Not(TimeEquals(0))))
        assert Point(0, 0) in at_zero
        assert Point(0, 1) not in at_zero
        assert Point(10**9, 0) not in at_zero
        assert len(at_zero) == len(explicit)


class TestSmallCustomSystem:
    def test_system_from_explicit_patterns(self):
        model = SendingOmissionModel(n=3, t=1)
        patterns = [model.failure_free()]
        system = build_system(MinProtocol(1), 3, horizon=2, patterns=patterns)
        checker = ModelChecker(system)
        # With no failures possible, everyone's decisions become common knowledge
        # ... but more simply: the system has 8 runs (preference vectors only).
        assert len(system.runs) == 8
        assert checker.valid(CommonKnowledge(NONFAULTY, TRUE))

    def test_empty_pattern_set_rejected(self):
        with pytest.raises(ModelCheckingError):
            build_system(MinProtocol(1), 3, horizon=2, patterns=[])
