"""Unit tests for the one-step-deviation optimality probe."""

import pytest

from repro.analysis.optimality import (
    context_scenarios,
    earlier_decision_candidates,
    probe_optimality,
    reachable_states,
)
from repro.core.types import DECIDE_0, DECIDE_1, NOOP
from repro.protocols import DelayedMinProtocol, MinProtocol
from repro.systems import gamma_min
from repro.workloads import enumerate_preferences, random_scenarios


@pytest.fixture(scope="module")
def small_context():
    return gamma_min(3, 1)


@pytest.fixture(scope="module")
def small_workload(small_context):
    """A reduced workload: the failure-free pattern plus a few random adversaries."""
    scenarios = [(prefs, small_context.failure_model.failure_free())
                 for prefs in enumerate_preferences(3)]
    scenarios += random_scenarios(3, 1, count=10, seed=9, horizon=small_context.horizon)
    return scenarios


class TestHelpers:
    def test_earlier_decision_candidates(self):
        assert earlier_decision_candidates(NOOP) == (DECIDE_0, DECIDE_1)
        assert earlier_decision_candidates(DECIDE_0) == (DECIDE_1,)
        assert earlier_decision_candidates(DECIDE_1) == (DECIDE_0,)

    def test_context_scenarios_is_exhaustive(self, small_context):
        scenarios = context_scenarios(small_context)
        assert len(scenarios) == len(list(small_context.patterns())) * 8

    def test_reachable_states_are_undecided(self, small_context, small_workload):
        states = reachable_states(MinProtocol(1), 3, small_workload, small_context.horizon)
        assert states
        assert all(state.decided is None for state in states)
        assert all(state.time < small_context.horizon for state in states)


class TestProbe:
    def test_pmin_probe_is_consistent_with_optimality(self, small_context):
        # Soundness of the probe requires the *exhaustive* workload of the
        # context: with only a sample of adversaries a speed-up can look
        # correct simply because the run that breaks it was not sampled.  Cap
        # the number of deviations to keep the test fast; the benchmark runs
        # the full probe.
        report = probe_optimality(MinProtocol(1), small_context, max_deviations=8)
        assert report.deviations_tried == 8
        assert report.consistent_with_optimality
        assert report.counterexamples() == []

    def test_every_deviation_is_classified(self, small_context, small_workload):
        report = probe_optimality(MinProtocol(1), small_context, scenarios=small_workload,
                                  max_deviations=6)
        assert report.deviations_tried == 6
        for outcome in report.outcomes:
            assert outcome.violates_spec or not outcome.strictly_dominates or \
                outcome.refutes_optimality

    def test_probe_detects_improvable_protocols(self, small_workload):
        # The delayed baseline is *not* optimal: deciding 1 one round earlier at
        # its post-deadline waiting state is correct and strictly dominating,
        # so the probe must refuse to certify it.  The context horizon is
        # stretched to t + 2 + delay so the delayed protocol itself terminates
        # within the simulated window.
        delayed_context = gamma_min(3, 1, horizon=4)
        report = probe_optimality(DelayedMinProtocol(1, delay=1), delayed_context,
                                  scenarios=small_workload)
        assert not report.consistent_with_optimality
        refutation = report.counterexamples()[0]
        assert refutation.deviating_action == DECIDE_1
        assert not refutation.violates_spec

    def test_one_batched_call_per_protocol_simulated(self, small_context, small_workload,
                                                     monkeypatch):
        """The base runs are simulated once; each tried deviation once more."""
        from repro.simulation.batch import BatchSimulator
        simulated = []
        simulate_scenarios = BatchSimulator.simulate_scenarios

        def spy(self, scenarios, horizon=None):
            simulated.append((self.protocol.name, len(scenarios), horizon))
            return simulate_scenarios(self, scenarios, horizon)

        monkeypatch.setattr(BatchSimulator, "simulate_scenarios", spy)
        report = probe_optimality(MinProtocol(1), small_context, scenarios=small_workload,
                                  max_deviations=5)
        horizon = small_context.horizon
        assert report.deviations_tried == 5
        assert simulated == [("P_min", len(small_workload), horizon)] + [
            ("P_min+dev", len(small_workload), horizon)] * 5
