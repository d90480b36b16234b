"""Unit tests for workload generators (preferences and scenarios)."""

import pytest

from repro.workloads import (
    all_ones,
    all_zeros,
    enumerate_preferences,
    example_7_1,
    failure_free_scenarios,
    hidden_chain_scenario,
    intro_counterexample,
    random_preferences,
    random_scenarios,
    silent_fault_sweep,
    single_zero,
)


class TestPreferenceGenerators:
    def test_uniform_vectors(self):
        assert all_zeros(3) == (0, 0, 0)
        assert all_ones(3) == (1, 1, 1)

    def test_single_dissenters(self):
        assert single_zero(4, holder=2) == (1, 1, 0, 1)

    def test_zero_fraction(self):
        assert random_preferences(4, 3, seed=5, zero_probability=0.0) == [(1, 1, 1, 1)] * 3
        assert random_preferences(4, 3, seed=5, zero_probability=1.0) == [(0, 0, 0, 0)] * 3
        zeros = sum(v.count(0) for v in random_preferences(10, 40, seed=5, zero_probability=0.5))
        assert 100 < zeros < 300

    def test_enumeration_is_complete_and_unique(self):
        vectors = list(enumerate_preferences(3))
        assert len(vectors) == 8
        assert len(set(vectors)) == 8
        assert all(len(v) == 3 for v in vectors)

    def test_random_preferences_reproducible(self):
        assert random_preferences(5, 4, seed=1) == random_preferences(5, 4, seed=1)
        assert random_preferences(5, 4, seed=1) != random_preferences(5, 4, seed=2)

    def test_random_preferences_respect_probability_extremes(self):
        assert all(v == (0,) * 4 for v in random_preferences(4, 5, zero_probability=1.0))
        assert all(v == (1,) * 4 for v in random_preferences(4, 5, zero_probability=0.0))


class TestScenarios:
    def test_example_7_1_shape(self):
        preferences, pattern = example_7_1(n=8, t=3)
        assert preferences == (1,) * 8
        assert pattern.faulty == frozenset({0, 1, 2})
        assert {agent for agent in range(8) if pattern.blocked_receivers(0, agent)
                == frozenset(range(8)) - {agent}} == {0, 1, 2}

    def test_intro_counterexample_shape(self):
        preferences, pattern = intro_counterexample(n=4, t=1)
        assert preferences == (0, 1, 1, 1)
        assert pattern.faulty == frozenset({0})
        # The reveal happens in round t + 1 = 2 to the confidant only.
        assert pattern.delivered(1, 0, 2)
        assert not pattern.delivered(1, 0, 1)

    def test_hidden_chain_scenario_bounds(self):
        with pytest.raises(ValueError):
            hidden_chain_scenario(3, chain_length=3)
        preferences, pattern = hidden_chain_scenario(5, chain_length=2)
        assert preferences[0] == 0
        assert pattern.faulty == frozenset({0, 1})

    def test_failure_free_scenarios_are_labelled(self):
        scenarios = failure_free_scenarios(4)
        labels = [label for label, _ in scenarios]
        assert "all agents prefer 1" in labels
        assert all(pattern.num_faulty == 0 for _, (_, pattern) in scenarios)

    def test_random_scenarios_reproducible_and_bounded(self):
        first = random_scenarios(5, 2, count=6, seed=3)
        second = random_scenarios(5, 2, count=6, seed=3)
        assert first == second
        assert all(pattern.num_faulty <= 2 for _, pattern in first)
        assert all(len(prefs) == 5 for prefs, _ in first)

    def test_silent_fault_sweep_covers_zero_to_t(self):
        sweep = silent_fault_sweep(6, 2)
        counts = [k for k, _ in sweep]
        assert counts == [0, 1, 2]
        for k, (_, pattern) in sweep:
            assert pattern.num_faulty == k
