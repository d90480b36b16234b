"""Unit tests for the knowledge-based programs P0 and P1."""

import pytest

from repro.core.types import DECIDE_0, DECIDE_1, NOOP
from repro.kbp import make_p0, make_p1
from repro.logic import Knows, ModelChecker
from repro.protocols import MinProtocol
from repro.systems import Point, gamma_min


@pytest.fixture(scope="module")
def min_system():
    return gamma_min(3, 1).build_system(MinProtocol(1))


class TestStructure:
    def test_p0_has_three_clauses_per_agent(self):
        program = make_p0(3)
        assert program.n == 3
        for agent in range(3):
            local = program.local(agent)
            assert len(local.clauses) == 3
            assert local.default == NOOP
            assert local.clauses[0].action == NOOP
            assert local.clauses[1].action == DECIDE_0
            assert local.clauses[2].action == DECIDE_1

    def test_p1_has_five_clauses_per_agent(self):
        program = make_p1(4, 2)
        for agent in range(4):
            clauses = program.local(agent).clauses
            assert len(clauses) == 5
            assert [clause.action for clause in clauses] == [
                NOOP, DECIDE_0, DECIDE_1, DECIDE_0, DECIDE_1]

    def test_guards_are_agent_local(self):
        # Every epistemic guard of agent i's program must be of the form K_i(...)
        # or a test on i's own state; spot-check the knowledge clauses.
        program = make_p1(3, 1)
        for agent in range(3):
            for clause in program.local(agent).clauses[1:3]:
                assert isinstance(clause.guard, Knows)
                assert clause.guard.agent == agent

    def test_repr(self):
        assert "P0" in repr(make_p0(2))


class TestPrescriptions:
    def test_initial_zero_prescribes_decide_zero(self, min_system):
        program = make_p0(3)
        checker = ModelChecker(min_system)
        for run_index, run in enumerate(min_system.runs):
            for agent in range(3):
                if run.preferences[agent] == 0:
                    action = program.prescribed_action(checker, agent, Point(run_index, 0))
                    assert action == DECIDE_0
                    break
            else:
                continue
            break
        else:
            pytest.fail("no run with an initial 0 found")

    def test_prescriptions_depend_only_on_local_state(self, min_system):
        program = make_p0(3)
        checker = ModelChecker(min_system)
        classes = min_system.equivalence_classes(0)
        # Pick a few classes and check all members get the same prescription.
        for points in list(classes.values())[:10]:
            actions = {program.prescribed_action(checker, 0, point) for point in points}
            assert len(actions) == 1

    def test_prescribed_actions_bulk(self, min_system):
        program = make_p0(3)
        checker = ModelChecker(min_system)
        table = {(point, agent): program.prescribed_action(checker, agent, point)
                 for point in min_system.points if point.time <= 1
                 for agent in range(3)}
        assert {point.time for (point, _agent) in table} == {0, 1}
        assert all(action in (NOOP, DECIDE_0, DECIDE_1) for action in table.values())
