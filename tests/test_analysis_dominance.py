"""Unit tests for the dominance comparison machinery."""

import pytest

from repro.analysis import compare_traces
from repro.api import Sweep
from repro.failures import FailurePattern
from repro.protocols import BasicProtocol, DelayedMinProtocol, MinProtocol
from repro.simulation import simulate
from repro.workloads import all_ones, failure_free_scenarios, random_scenarios


class TestCompareTraces:
    def test_identical_protocols_are_equivalent(self):
        scenarios = random_scenarios(4, 1, count=5, seed=5)
        first = [simulate(MinProtocol(1), 4, prefs, pattern) for prefs, pattern in scenarios]
        second = [simulate(MinProtocol(1), 4, prefs, pattern) for prefs, pattern in scenarios]
        result = compare_traces(first, second)
        assert result.equivalent
        assert result.first_dominates and result.second_dominates
        assert result.first_strictly_earlier == 0

    def test_mismatched_scenarios_rejected(self):
        a = simulate(MinProtocol(1), 4, [0, 1, 1, 1])
        b = simulate(MinProtocol(1), 4, [1, 1, 1, 1])
        with pytest.raises(ValueError):
            compare_traces([a], [b])

    def test_length_mismatch_rejected(self):
        a = simulate(MinProtocol(1), 4, [0, 1, 1, 1])
        with pytest.raises(ValueError):
            compare_traces([a], [])


class TestCompareProtocols:
    def test_pmin_strictly_dominates_delayed_variant(self):
        scenarios = [scenario for _, scenario in failure_free_scenarios(5)]
        result = (Sweep.of(MinProtocol(1), DelayedMinProtocol(1, delay=2)).on(scenarios, n=5)
                  .run().compare("P_min", "P_min_delayed(2)"))
        assert result.first_dominates
        assert not result.second_dominates
        assert result.first_strictly_dominates
        assert result.counterexamples_to_second
        assert "strictly dominates" in result.summary()

    def test_delayed_variant_does_not_dominate_back(self):
        scenarios = random_scenarios(5, 1, count=8, seed=3)
        result = (Sweep.of(DelayedMinProtocol(1, delay=1), MinProtocol(1)).on(scenarios, n=5)
                  .run().compare("P_min_delayed(1)", "P_min"))
        assert not result.first_strictly_dominates

    def test_nobody_strictly_dominates_pbasic_in_its_context(self):
        # P_basic versus a slower protocol over the same exchange cannot be
        # dominated; this is the checkable consequence of Corollary 6.7.
        scenarios = random_scenarios(5, 1, count=8, seed=4)
        result = (Sweep.of(BasicProtocol(1), MinProtocol(1)).on(scenarios, n=5)
                  .run().compare("P_basic", "P_min"))
        assert not result.second_strictly_dominates

    def test_equivalent_summary_wording(self):
        # A zero-delay DelayedMin behaves exactly like P_min, so the comparison
        # must report identical decision times.
        scenarios = [(all_ones(4), FailurePattern.failure_free(4))]
        result = (Sweep.of(MinProtocol(1), DelayedMinProtocol(1, delay=0)).on(scenarios, n=4)
                  .run().compare("P_min", "P_min_delayed(0)"))
        assert "identical" in result.summary()


class TestPairwise:
    def test_pairwise_produces_all_pairs(self):
        protocols = [MinProtocol(1), BasicProtocol(1), DelayedMinProtocol(1)]
        scenarios = random_scenarios(4, 1, count=4, seed=6)
        results = Sweep.of(*protocols).on(scenarios, n=4).run().pairwise()
        assert len(results) == 3
        assert ("P_min", "P_basic") in results

    def test_pairwise_counterexamples_reference_scenarios(self):
        protocols = [MinProtocol(1), DelayedMinProtocol(1, delay=3)]
        scenarios = [(all_ones(4), FailurePattern.failure_free(4))]
        results = Sweep.of(*protocols).on(scenarios, n=4).run().pairwise()
        result = results[("P_min", "P_min_delayed(3)")]
        assert result.counterexamples_to_second
        example = result.counterexamples_to_second[0]
        assert example.scenario_index == 0
        assert "round" in repr(example)
