"""Unit tests for repro.failures.pattern."""

import pickle

import pytest

from repro.core.errors import FailureModelError
from repro.failures import FailurePattern
from repro.protocols import MinProtocol, OptimalFipProtocol
from repro.simulation import simulate


def fip_run(pattern, horizon):
    """An all-ones FIP run: every agent sends its graph to everyone in every round."""
    return simulate(OptimalFipProtocol(1), pattern.n, (1,) * pattern.n, pattern,
                    horizon=horizon)


def known_faulty(trace, time):
    """What each agent's communication graph shows to be faulty at ``time``."""
    return [trace.state_of(agent, time).graph.known_faulty(agent, time)
            for agent in range(trace.n)]


def dropped_senders(trace):
    """The senders with a message to *another* agent that the run did not deliver."""
    return {sender for record in trace.rounds for sender in range(trace.n)
            for receiver in range(trace.n)
            if receiver != sender and record.sent[sender][receiver] is not None
            and record.delivered[receiver][sender] is None}


def swap_agents(pattern, a, b):
    """``pattern`` with the names of agents ``a`` and ``b`` exchanged everywhere."""
    def relabel(agent):
        return {a: b, b: a}.get(agent, agent)
    return FailurePattern(
        n=pattern.n, faulty=frozenset(map(relabel, pattern.faulty)),
        omissions=frozenset((m, relabel(s), relabel(r)) for (m, s, r) in pattern.omissions),
        receive_omissions=frozenset((m, relabel(s), relabel(r))
                                    for (m, s, r) in pattern.receive_omissions))


class TestConstruction:
    def test_failure_free(self):
        pattern = FailurePattern.failure_free(4)
        assert pattern.faulty == frozenset()
        assert pattern.nonfaulty == frozenset({0, 1, 2, 3})
        assert pattern.num_faulty == 0
        assert pattern.delivered(0, 0, 1)

    def test_only_faulty_agents_may_omit(self):
        with pytest.raises(FailureModelError):
            FailurePattern(n=3, faulty=frozenset(), omissions=frozenset({(0, 1, 2)}))

    def test_negative_round_rejected(self):
        with pytest.raises(FailureModelError):
            FailurePattern(n=3, faulty=frozenset({1}), omissions=frozenset({(-1, 1, 2)}))

    def test_out_of_range_agents_rejected(self):
        with pytest.raises(FailureModelError):
            FailurePattern(n=3, faulty=frozenset({1}), omissions=frozenset({(0, 1, 5)}))

    def test_from_blocked_infers_faulty_set(self):
        pattern = FailurePattern.from_blocked(4, [(0, 2, 1), (1, 2, 3)], extra_faulty=[0])
        assert pattern.faulty == frozenset({0, 2})
        assert not pattern.delivered(0, 2, 1)
        assert pattern.delivered(0, 2, 0)


class TestSilent:
    def test_silent_blocks_everything_but_self(self):
        pattern = FailurePattern.silent(4, faulty=[1], horizon=3)
        for round_index in range(3):
            for receiver in range(4):
                expected = receiver == 1
                assert pattern.delivered(round_index, 1, receiver) is expected

    def test_silent_senders_detection(self):
        pattern = FailurePattern.silent(4, faulty=[1, 2], horizon=2)

        def silent_agents(round_index):
            return {agent for agent in range(4)
                    if pattern.blocked_receivers(round_index, agent) == set(range(4)) - {agent}}

        assert silent_agents(0) == {1, 2}
        assert silent_agents(5) == set()


class TestQueries:
    def test_blocked_receivers(self):
        pattern = FailurePattern.from_blocked(4, [(0, 1, 2), (0, 1, 3), (1, 1, 2)])
        assert pattern.blocked_receivers(0, 1) == frozenset({2, 3})
        assert pattern.blocked_receivers(1, 1) == frozenset({2})
        assert pattern.blocked_receivers(0, 2) == frozenset()

    def test_exhibits_faulty_behaviour(self):
        trace = fip_run(FailurePattern.from_blocked(3, [(0, 1, 2)]), horizon=2)
        assert dropped_senders(trace) == {1}
        assert known_faulty(trace, 1) == [frozenset(), frozenset(), frozenset({1})]
        assert known_faulty(trace, 2) == [frozenset({1})] * 3

    def test_self_omission_is_not_visible_behaviour(self):
        pattern = FailurePattern(n=3, faulty=frozenset({1}),
                                 omissions=frozenset({(0, 1, 1)}))
        trace = fip_run(pattern, horizon=1)
        assert dropped_senders(trace) == set()
        # Only agent 1 sees its own lost message; no other agent observes a drop.
        assert known_faulty(trace, 1) == [frozenset(), frozenset({1}), frozenset()]

    def test_exhibits_faulty_behaviour_respects_horizon(self):
        pattern = FailurePattern.from_blocked(3, [(5, 1, 2)])
        assert dropped_senders(fip_run(pattern, horizon=3)) == set()
        trace = fip_run(pattern, horizon=6)
        assert dropped_senders(trace) == {1}
        assert known_faulty(trace, 5) == [frozenset()] * 3
        assert known_faulty(trace, 6)[2] == frozenset({1})

    def test_max_round(self):
        assert FailurePattern.failure_free(3).max_round() == -1
        assert FailurePattern.from_blocked(3, [(2, 1, 0), (4, 1, 2)]).max_round() == 4


class TestTransformations:
    """Patterns built from one another with the plain constructor, and what runs see."""

    def test_with_and_without_omission(self):
        base = FailurePattern(n=3, faulty=frozenset({2}))
        extended = FailurePattern(n=3, faulty=base.faulty, omissions=frozenset({(1, 2, 0)}))
        assert not extended.delivered(1, 2, 0)
        assert extended.blocked_receivers(1, 2) == frozenset({0})
        assert base.delivered(1, 2, 0)
        assert base.faulty == extended.faulty == frozenset({2})
        assert dropped_senders(fip_run(extended, horizon=2)) == {2}
        assert dropped_senders(fip_run(base, horizon=2)) == set()

    def test_with_faulty_marks_agent(self):
        pattern = FailurePattern(n=3, faulty=frozenset({1}))
        assert pattern.faulty == frozenset({1})
        assert pattern.nonfaulty == frozenset({0, 2})
        # A faulty agent that omits nothing acts nonfaulty: no run reveals it.
        trace = fip_run(pattern, horizon=3)
        assert dropped_senders(trace) == set()
        assert known_faulty(trace, 3) == [frozenset()] * 3

    def test_swap_roles_exchanges_failures(self):
        pattern = FailurePattern.from_blocked(4, [(0, 1, 2), (1, 1, 3)])
        swapped = FailurePattern.from_blocked(4, [(0, 0, 2), (1, 0, 3)])
        assert swap_agents(pattern, 1, 0) == swapped
        before, after = fip_run(pattern, horizon=3), fip_run(swapped, horizon=3)
        assert known_faulty(before, 1)[2] == frozenset({1})
        assert known_faulty(after, 1)[2] == frozenset({0})
        rename = [1, 0, 2, 3]
        assert all(before.decisions()[agent] == after.decisions()[rename[agent]]
                   for agent in range(4))

    def test_swap_roles_is_involutive(self):
        pattern = FailurePattern.from_blocked(4, [(0, 1, 2)], extra_faulty=[3])
        once = swap_agents(pattern, 1, 3)
        assert once != pattern
        assert once.omissions == frozenset({(0, 3, 2)})
        assert swap_agents(once, 1, 3) == pattern
        assert hash(swap_agents(once, 1, 3)) == hash(pattern)

    def test_restrict_to_horizon(self):
        pattern = FailurePattern.from_blocked(3, [(0, 1, 2), (5, 1, 0)])
        restricted = FailurePattern.from_blocked(3, [(0, 1, 2)])
        assert restricted.faulty == pattern.faulty
        # A run of three rounds never reaches the round-6 omission.
        full, cut = (simulate(MinProtocol(1), 3, (0, 1, 1), p, horizon=3)
                     for p in (pattern, restricted))
        assert [record.delivered for record in full.rounds] \
            == [record.delivered for record in cut.rounds]
        assert full.decisions() == cut.decisions()


class TestValueSemantics:
    def test_equality_and_hash(self):
        a = FailurePattern.from_blocked(3, [(0, 1, 2)])
        b = FailurePattern.from_blocked(3, [(0, 1, 2)])
        assert a == b
        assert hash(a) == hash(b)

    def test_grouping_on_first_use_leaves_value_semantics_alone(self):
        read = FailurePattern.from_blocked(3, [(1, 2, 0), (0, 2, 1)])
        fresh = FailurePattern.from_blocked(3, [(1, 2, 0), (0, 2, 1)])
        assert read.blocked_by_round == (frozenset({(2, 1)}), frozenset({(2, 0)}))
        assert "blocked_by_round" in vars(read) and "blocked_by_round" not in vars(fresh)
        assert read == fresh and hash(read) == hash(fresh)
        assert pickle.dumps(read) == pickle.dumps(fresh)
        assert "blocked_by_round" not in vars(pickle.loads(pickle.dumps(read)))

    def test_describe_mentions_faulty_agents(self):
        pattern = FailurePattern.from_blocked(3, [(0, 1, 2)])
        assert "1" in pattern.describe()
        assert "failure-free" in FailurePattern.failure_free(3).describe()

    def test_iteration_yields_sorted_omissions(self):
        pattern = FailurePattern.from_blocked(3, [(1, 2, 0), (0, 2, 1)])
        assert list(pattern) == [(0, 2, 1), (1, 2, 0)]
