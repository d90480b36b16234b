"""Unit tests for 0-chain extraction and the hears-from relation of a run."""

from repro.analysis import longest_zero_chain, zero_chains, zero_deciders_by_round
from repro.failures import FailurePattern
from repro.protocols import MinProtocol, OptimalFipProtocol
from repro.simulation import simulate
from repro.workloads import all_ones, hidden_chain_scenario


class TestZeroDeciders:
    def test_failure_free_single_zero(self):
        trace = simulate(MinProtocol(1), 4, [0, 1, 1, 1])
        deciders = zero_deciders_by_round(trace)
        assert deciders[0] == frozenset({0})
        assert deciders[1] == frozenset({1, 2, 3})

    def test_no_zero_deciders_in_all_ones_run(self):
        trace = simulate(MinProtocol(1), 4, all_ones(4))
        assert zero_deciders_by_round(trace) == {}


class TestZeroChains:
    def test_chain_structure_in_failure_free_run(self):
        trace = simulate(MinProtocol(1), 4, [0, 1, 1, 1])
        chains = zero_chains(trace)
        lengths = {chain.last_agent: chain.length for chain in chains}
        assert lengths[0] == 0
        assert lengths[1] == 1
        assert all(chain.agents[0] == 0 for chain in chains)

    def test_hidden_chain_is_detected(self):
        preferences, pattern = hidden_chain_scenario(5, chain_length=2)
        trace = simulate(MinProtocol(2), 5, preferences, pattern)
        longest = longest_zero_chain(trace)
        assert longest is not None
        assert longest.agents[:3] == (0, 1, 2)
        assert longest.length >= 2

    def test_received_zero_chain_lookup(self):
        preferences, pattern = hidden_chain_scenario(5, chain_length=2)
        trace = simulate(MinProtocol(2), 5, preferences, pattern)
        ending_at_2 = {chain.length for chain in zero_chains(trace) if chain.last_agent == 2}
        assert 2 in ending_at_2
        assert 5 not in ending_at_2

    def test_no_chains_without_zero_decisions(self):
        trace = simulate(MinProtocol(1), 4, all_ones(4))
        assert zero_chains(trace) == []
        assert longest_zero_chain(trace) is None

    def test_chains_work_for_fip_traces(self):
        trace = simulate(OptimalFipProtocol(1), 4, [0, 1, 1, 1])
        lengths = {chain.last_agent: chain.length for chain in zero_chains(trace)}
        assert lengths[0] == 0
        assert lengths[2] == 1


class TestHearsFrom:
    """The hears-from relation, read off the FIP communication graph of a trace."""

    def test_failure_free_everyone_hears_everyone(self):
        trace = simulate(OptimalFipProtocol(1), 4, all_ones(4), horizon=3)
        frontier = trace.state_of(0, 2).graph.heard_frontier(0, 2)
        assert frontier == [2, 1, 1, 1]
        # With E_min nobody sends anything in an all-ones run before deciding,
        # so nothing is ever heard from the other agents.
        trace = simulate(MinProtocol(1), 4, all_ones(4), horizon=3)
        assert all(record.delivered[0][sender] is None
                   for record in trace.rounds[:2] for sender in (1, 2, 3))

    def test_fip_frontier_tracks_deliveries(self):
        pattern = FailurePattern.silent(4, faulty=[3], horizon=4)
        trace = simulate(OptimalFipProtocol(1), 4, all_ones(4), pattern, horizon=3)
        frontier = trace.state_of(0, 2).graph.heard_frontier(0, 2)
        assert frontier[1] == 1
        assert frontier[3] == -1

    def test_hears_from_predicate(self):
        trace = simulate(OptimalFipProtocol(1), 4, all_ones(4), horizon=3)
        frontier = trace.state_of(0, 2).graph.heard_frontier(0, 2)
        assert frontier[1] >= 1      # (1, 1) hears-into (0, 2)
        assert not frontier[1] >= 2  # (1, 2) does not
