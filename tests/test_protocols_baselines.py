"""Unit tests for the baseline protocols (naive 0-biased, delayed, eager)."""

import pytest

from repro.api import Sweep
from repro.protocols import DelayedMinProtocol, EagerOneProtocol, MinProtocol, NaiveZeroBiasedProtocol
from repro.simulation import simulate
from repro.spec import check_eba
from repro.workloads import all_ones, hidden_chain_scenario, intro_counterexample


class TestNaiveZeroBiased:
    def test_violates_agreement_on_intro_counterexample(self):
        preferences, pattern = intro_counterexample(n=4, t=1)
        trace = simulate(NaiveZeroBiasedProtocol(1), 4, preferences, pattern)
        report = check_eba(trace)
        assert report.agreement, "the naive protocol must split the nonfaulty decisions"

    def test_is_fine_without_failures(self):
        trace = simulate(NaiveZeroBiasedProtocol(1), 4, [0, 1, 1, 1])
        assert check_eba(trace).ok
        assert all(trace.decision_value(agent) == 0 for agent in range(4))

    def test_decides_one_after_deadline_when_no_zero(self):
        trace = simulate(NaiveZeroBiasedProtocol(2), 4, all_ones(4))
        assert all(trace.decision_value(agent) == 1 for agent in range(4))
        assert all(trace.decision_round(agent) == 4 for agent in range(4))


class TestDelayedMin:
    def test_is_a_correct_eba_protocol(self):
        preferences, pattern = hidden_chain_scenario(5, chain_length=1)
        trace = simulate(DelayedMinProtocol(2, delay=2), 5, preferences, pattern)
        assert check_eba(trace).ok

    def test_strictly_dominated_by_pmin_on_all_ones(self):
        from repro.failures import FailurePattern

        runs = (Sweep.of(MinProtocol(2), DelayedMinProtocol(2, delay=2))
                .on([(all_ones(5), FailurePattern.failure_free(5))])
                .run().corresponding(0))
        assert runs["P_min"].last_decision_round() == 4
        assert runs["P_min_delayed(2)"].last_decision_round() == 6

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            DelayedMinProtocol(1, delay=-1)

    def test_zero_decisions_are_not_delayed(self):
        trace = simulate(DelayedMinProtocol(1, delay=3), 4, [0, 1, 1, 1])
        assert trace.decision_round(1) == 2
        assert trace.decision_value(1) == 0


class TestEagerOne:
    def test_violates_agreement_on_hidden_chain(self):
        # A faulty agent with preference 0 that talks only to one nonfaulty
        # agent delivers the 0 after the impatient agents have already decided
        # 1, splitting the nonfaulty decisions.
        preferences, pattern = hidden_chain_scenario(6, chain_length=1)
        trace = simulate(EagerOneProtocol(1, patience=1), 6, preferences, pattern)
        report = check_eba(trace)
        assert not report.ok
        assert report.agreement

    def test_rejects_non_positive_patience(self):
        with pytest.raises(ValueError):
            EagerOneProtocol(1, patience=0)

    def test_fine_when_everyone_prefers_one_and_no_failures(self):
        trace = simulate(EagerOneProtocol(1, patience=1), 4, all_ones(4))
        assert check_eba(trace).ok
