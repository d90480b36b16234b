"""Unit tests for repro.failures.adversaries."""

import pytest

from repro.core.errors import ConfigurationError
from repro.failures import (
    SendingOmissionModel,
    crash_staircase_adversary,
    hidden_chain_adversary,
    intro_counterexample_adversary,
    random_omission_adversaries,
    silent_adversary,
)


class TestSilentAdversary:
    def test_blocks_all_messages_from_faulty(self):
        pattern = silent_adversary(5, faulty=[0, 1], horizon=3)
        assert pattern.faulty == frozenset({0, 1})
        for sender in (0, 1):
            for round_index in range(3):
                for receiver in range(5):
                    if receiver != sender:
                        assert not pattern.delivered(round_index, sender, receiver)

    def test_nonfaulty_messages_untouched(self):
        pattern = silent_adversary(5, faulty=[0], horizon=3)
        assert pattern.delivered(0, 2, 3)


class TestIntroCounterexample:
    def test_single_message_gets_through(self):
        pattern = intro_counterexample_adversary(4, reveal_round=2,
                                                 faulty_agent=0, confidant=2)
        assert pattern.faulty == frozenset({0})
        # Round 2 (round_index 1): only the confidant hears from the faulty agent.
        assert pattern.delivered(1, 0, 2)
        assert not pattern.delivered(1, 0, 1)
        assert not pattern.delivered(1, 0, 3)
        # Round 1: nobody hears from it.
        assert not pattern.delivered(0, 0, 2)

    def test_requires_three_agents(self):
        with pytest.raises(ConfigurationError):
            intro_counterexample_adversary(2, reveal_round=1)

    def test_rejects_confidant_equal_to_faulty(self):
        with pytest.raises(ConfigurationError):
            intro_counterexample_adversary(4, reveal_round=1, faulty_agent=1, confidant=1)

    def test_rejects_zero_reveal_round(self):
        with pytest.raises(ConfigurationError):
            intro_counterexample_adversary(4, reveal_round=0)


class TestHiddenChain:
    def test_chain_links_survive(self):
        pattern = hidden_chain_adversary(5, chain=(0, 1, 2))
        # Round 1: agent 0 reaches only agent 1.
        assert pattern.delivered(0, 0, 1)
        assert not pattern.delivered(0, 0, 2)
        # Round 2: agent 1 reaches only agent 2.
        assert pattern.delivered(1, 1, 2)
        assert not pattern.delivered(1, 1, 3)

    def test_last_chain_agent_is_nonfaulty(self):
        pattern = hidden_chain_adversary(5, chain=(0, 1, 2))
        assert pattern.faulty == frozenset({0, 1})

    def test_rejects_duplicate_agents(self):
        with pytest.raises(ConfigurationError):
            hidden_chain_adversary(5, chain=(0, 1, 0))

    def test_rejects_out_of_range_agents(self):
        with pytest.raises(ConfigurationError):
            hidden_chain_adversary(3, chain=(0, 5))

    def test_singleton_chain_has_no_faulty_agents(self):
        pattern = hidden_chain_adversary(4, chain=(2,))
        assert pattern.faulty == frozenset()


class TestCrashStaircase:
    def test_one_crash_per_round(self):
        pattern = crash_staircase_adversary(5, t=3)
        assert pattern.faulty == frozenset({0, 1, 2})
        # Agent 0 crashes in round 1 reaching only agent 1.
        assert pattern.delivered(0, 0, 1)
        assert not pattern.delivered(0, 0, 2)
        # Agent 1 crashes in round 2: its round-1 messages are fine.
        assert pattern.delivered(0, 1, 4)
        assert not pattern.delivered(1, 1, 3)

    def test_rejects_t_equal_n(self):
        with pytest.raises(ConfigurationError):
            crash_staircase_adversary(3, t=3)


class TestRandomAdversaries:
    def test_reproducible(self):
        first = random_omission_adversaries(5, 2, horizon=3, count=4, seed=9)
        second = random_omission_adversaries(5, 2, horizon=3, count=4, seed=9)
        assert first == second

    def test_count_and_bound(self):
        patterns = random_omission_adversaries(5, 2, horizon=3, count=6, seed=1)
        assert len(patterns) == 6
        assert all(p.num_faulty <= 2 for p in patterns)


def test_iter_faulty_sets_enumerates_all_small_subsets():
    sets = {pattern.faulty for pattern in SendingOmissionModel(n=4, t=2).enumerate(1)}
    assert frozenset() in sets
    assert frozenset({3}) in sets
    assert frozenset({1, 2}) in sets
    assert all(len(s) <= 2 for s in sets)
    assert len(sets) == 1 + 4 + 6
