"""Unit tests for the trace / communication-graph renderers."""

import pytest

from repro.failures import FailurePattern
from repro.protocols import BasicProtocol, MinProtocol, OptimalFipProtocol
from repro.reporting import render_decision_timeline, render_run
from repro.simulation import simulate


@pytest.fixture
def trace():
    pattern = FailurePattern.silent(4, faulty=[0], horizon=4)
    return simulate(MinProtocol(1), 4, [1, 1, 1, 0], pattern)


class TestRenderRun:
    def test_contains_rounds_and_decisions(self, trace):
        text = render_run(trace)
        assert "round 1:" in text
        assert "agent 3 decides 0" in text
        assert "P_min" in text
        assert "faulty=[0]" in text

    def test_dropped_messages_marked(self, trace):
        text = render_run(trace)
        # Agent 0 is silent: its decide message in round 2 is sent but dropped.
        assert "x" in text

    def test_max_rounds_limits_output(self, trace):
        full = render_run(trace)
        truncated = render_run(trace, max_rounds=1)
        assert len(truncated) < len(full)
        assert "round 2:" not in truncated.split("agent 0")[0]

    def test_heartbeats_rendered_for_basic_exchange(self):
        trace = simulate(BasicProtocol(1), 3, [1, 1, 1])
        assert "h" in render_run(trace)

    def test_graph_messages_rendered_for_fip(self):
        trace = simulate(OptimalFipProtocol(1), 3, [1, 1, 1])
        assert "G" in render_run(trace)


class TestDecisionTimeline:
    def test_marks_faulty_agents(self, trace):
        text = render_decision_timeline(trace)
        assert "agent 0*" in text
        assert "(* = faulty agent)" in text

    def test_shows_rounds_and_values(self, trace):
        text = render_decision_timeline(trace)
        assert "decided 0 in round 1" in text

    def test_reports_undecided_agents(self):
        trace = simulate(MinProtocol(2), 4, [1, 1, 1, 1], horizon=1)
        assert "never decides" in render_decision_timeline(trace)

    def test_no_faulty_marker_without_failures(self):
        trace = simulate(MinProtocol(1), 3, [0, 1, 1])
        assert "(* = faulty agent)" not in render_decision_timeline(trace)


class TestCommGraphView:
    def test_renders_preferences_and_rounds(self):
        trace = simulate(OptimalFipProtocol(1), 3, [1, 0, 1], horizon=2)
        assert trace.state_of(0, 2).graph.known_preferences() == {0: 1, 1: 0, 2: 1}
        text = render_run(trace)
        assert "preferences : [1, 0, 1]" in text
        assert "round 1: agent 1 decides 0" in text
        assert "round 2: agent 0 decides 0; agent 2 decides 0" in text
        assert "    0 -> [G G G]" in text

    def test_unknown_labels_rendered_as_question_marks(self):
        pattern = FailurePattern.silent(3, faulty=[2], horizon=3)
        trace = simulate(OptimalFipProtocol(1), 3, [1, 1, 1], pattern, horizon=2)
        graph = trace.state_of(0, 1).graph
        assert graph.label(0, 2, 0) is False   # agent 0 saw 2's message go missing
        assert graph.label(0, 2, 1) is None    # whether 1 got it is unknown to 0
        assert graph.known_preferences() == {0: 1, 1: 1}
        assert "    2 -> [x x G]" in render_run(trace)
