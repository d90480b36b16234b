"""Unit tests for the communication-graph representation (Appendix A.2.7)."""

import pytest

from repro.core.agents import complement
from repro.exchange import CommGraph, FullInformationExchange
from repro.failures import FailurePattern
from repro.protocols import OptimalFipProtocol
from repro.simulation import simulate


def graph_of(trace, agent, time):
    """Helper: the communication graph held by ``agent`` at ``time`` in a trace."""
    return trace.state_of(agent, time).graph


@pytest.fixture
def failure_free_trace():
    """A 4-agent failure-free run of the FIP (3 rounds)."""
    return simulate(OptimalFipProtocol(1), 4, [1, 0, 1, 1], horizon=3)


@pytest.fixture
def silent_trace():
    """A 4-agent run where agent 0 is faulty and silent."""
    pattern = FailurePattern.silent(4, faulty=[0], horizon=4)
    return simulate(OptimalFipProtocol(1), 4, [1, 1, 1, 1], pattern, horizon=3)


class TestInitialGraph:
    def test_knows_only_own_preference(self):
        graph = CommGraph.initial(4, agent=2, init=0)
        assert graph.time == 0
        assert graph.preference(2) == 0
        assert graph.preference(0) is None
        assert graph.known_preferences() == {2: 0}
        assert not any(graph.label(0, s, r) is not None for s in range(4) for r in range(4))

    def test_bit_size_at_time_zero(self):
        graph = CommGraph.initial(5, agent=0, init=1)
        assert graph.bit_size() == 2 * 5


class TestAdvance:
    def test_direct_observations_are_recorded(self, failure_free_trace):
        graph = graph_of(failure_free_trace, 0, 1)
        for sender in range(4):
            assert graph.label(0, sender, 0) is True

    def test_omissions_are_recorded_as_blocked(self, silent_trace):
        graph = graph_of(silent_trace, 1, 1)
        assert graph.label(0, 0, 1) is False
        assert graph.label(0, 2, 1) is True

    def test_merge_learns_other_preferences(self, failure_free_trace):
        graph = graph_of(failure_free_trace, 0, 1)
        assert graph.known_preferences() == {0: 1, 1: 0, 2: 1, 3: 1}

    def test_second_round_merges_indirect_labels(self, failure_free_trace):
        graph = graph_of(failure_free_trace, 0, 2)
        # Agent 0 learns from agent 1's graph that agent 2's round-1 message to 1 arrived.
        assert graph.label(0, 2, 1) is True

    def test_wrong_received_length_rejected(self):
        graph = CommGraph.initial(3, agent=0, init=1)
        with pytest.raises(Exception):
            graph.advance(0, [None, None])

    def test_graphs_are_value_objects(self, failure_free_trace):
        a = graph_of(failure_free_trace, 0, 1)
        b = graph_of(failure_free_trace, 0, 1)
        assert a == b
        assert hash(a) == hash(b)
        assert a != graph_of(failure_free_trace, 0, 2)

    def test_bit_size_grows_quadratically(self, failure_free_trace):
        g1 = graph_of(failure_free_trace, 0, 1)
        g2 = graph_of(failure_free_trace, 0, 2)
        assert g1.bit_size() == 2 * 16 + 8
        assert g2.bit_size() == 2 * 32 + 8


class TestHearsFrom:
    def test_failure_free_frontier_is_everything(self, failure_free_trace):
        graph = graph_of(failure_free_trace, 0, 2)
        frontier = graph.heard_frontier(0, 2)
        assert frontier[0] == 2
        assert frontier[1] == frontier[2] == frontier[3] == 1

    def test_silent_agent_is_never_heard(self, silent_trace):
        graph = graph_of(silent_trace, 1, 2)
        frontier = graph.heard_frontier(1, 2)
        assert frontier[0] == -1
        assert frontier[2] == 1

    def test_hears_from_predicate(self, failure_free_trace):
        frontier = graph_of(failure_free_trace, 0, 2).heard_frontier(0, 2)
        assert frontier[1] >= 1      # (1, 1) hears-into (0, 2)
        assert frontier[1] >= 0      # and so does (1, 0)
        assert not frontier[1] >= 2  # (1, 2) does not


class TestRestriction:
    def test_restrict_reconstructs_other_agents_graph(self, failure_free_trace):
        graph_0 = graph_of(failure_free_trace, 0, 2)
        reconstructed = graph_0.restrict(1, 1)
        actual = graph_of(failure_free_trace, 1, 1)
        assert reconstructed == actual

    def test_restrict_reconstructs_under_failures(self, silent_trace):
        graph_1 = graph_of(silent_trace, 1, 2)
        reconstructed = graph_1.restrict(2, 1)
        actual = graph_of(silent_trace, 2, 1)
        assert reconstructed == actual

    def test_restrict_to_own_past(self, failure_free_trace):
        graph_0 = graph_of(failure_free_trace, 0, 2)
        reconstructed = graph_0.restrict(0, 1)
        actual = graph_of(failure_free_trace, 0, 1)
        assert reconstructed == actual


class TestFailureKnowledge:
    def test_known_faulty_detects_silent_agent(self, silent_trace):
        graph = graph_of(silent_trace, 1, 1)
        assert graph.known_faulty(1, 1) == frozenset({0})

    def test_known_faulty_empty_in_failure_free_run(self, failure_free_trace):
        graph = graph_of(failure_free_trace, 0, 2)
        assert graph.known_faulty(0, 2) == frozenset()

    def test_known_faulty_at_time_zero_is_empty(self, silent_trace):
        graph = graph_of(silent_trace, 1, 1)
        assert graph.known_faulty(1, 0) == frozenset()

    def test_distributed_faulty_unions_individual_knowledge(self, silent_trace):
        graph = graph_of(silent_trace, 1, 2)
        assert graph.distributed_faulty({1, 2, 3}, 1) == frozenset({0})
        assert graph.distributed_faulty({1, 2, 3}, 0) == frozenset()

    def test_possibly_nonfaulty_complements(self, silent_trace):
        graph = graph_of(silent_trace, 1, 1)
        assert complement(graph.known_faulty(1, 1), 4) == frozenset({1, 2, 3})


class TestValueKnowledge:
    def test_known_values_failure_free(self, failure_free_trace):
        graph = graph_of(failure_free_trace, 0, 2)
        assert graph.known_values(0, 1) == frozenset({0, 1})
        assert graph.known_values(0, 0) == frozenset({1})

    def test_known_values_of_other_agent(self, failure_free_trace):
        graph = graph_of(failure_free_trace, 0, 2)
        # What agent 0 knows agent 1 knew at time 1: everyone's preference.
        assert graph.known_values(1, 1) == frozenset({0, 1})


class TestFipExchange:
    def test_local_state_requires_graph(self):
        exchange = FullInformationExchange(3)
        state = exchange.initial_state(0, 1)
        assert state.graph.time == 0
        with pytest.raises(ValueError):
            type(state)(agent=0, n=3, time=0, init=1, decided=None, jd=None, graph=None)

    def test_graph_time_tracks_state_time(self, failure_free_trace):
        for time in range(failure_free_trace.horizon + 1):
            state = failure_free_trace.state_of(2, time)
            assert state.graph.time == state.time
