"""Unit tests for the EBA specification checkers."""

import pytest

from repro.cli import main
from repro.protocols import MinProtocol, NaiveZeroBiasedProtocol
from repro.simulation import simulate
from repro.spec import (
    check_agreement,
    check_eba,
    check_termination,
    check_unique_decision,
    check_validity,
)
from repro.workloads import all_ones, intro_counterexample


@pytest.fixture
def good_trace():
    return simulate(MinProtocol(1), 4, [0, 1, 1, 1])


@pytest.fixture
def split_trace():
    """A run of the naive protocol that splits the nonfaulty decisions."""
    preferences, pattern = intro_counterexample(n=4, t=1)
    return simulate(NaiveZeroBiasedProtocol(1), 4, preferences, pattern)


class TestIndividualCheckers:
    def test_unique_decision_holds_for_pmin(self, good_trace):
        assert check_unique_decision(good_trace) == []

    def test_agreement_detects_split(self, split_trace):
        violations = check_agreement(split_trace)
        assert len(violations) == 1
        assert "disagree" in violations[0]

    def test_agreement_ignores_faulty_agents(self):
        # A fully silent faulty agent with preference 0 decides 0 on its own
        # while the nonfaulty agents decide 1; Agreement only constrains the
        # nonfaulty agents, so the checker must not flag this run.
        from repro.failures import FailurePattern

        pattern = FailurePattern.silent(5, faulty=[0], horizon=5)
        trace = simulate(MinProtocol(1), 5, [0, 1, 1, 1, 1], pattern)
        assert trace.decision_value(0) == 0
        assert {trace.decision_value(a) for a in trace.nonfaulty} == {1}
        assert check_agreement(trace) == []

    def test_validity_holds(self, good_trace):
        assert check_validity(good_trace) == []
        assert check_validity(good_trace, include_faulty=True) == []

    def test_validity_detects_manufactured_value(self):
        # All agents prefer 1 but the eager protocol is tricked into... actually
        # no correct trace can violate validity, so synthesize one by running the
        # eager protocol and then lying about the preferences.
        trace = simulate(MinProtocol(1), 3, [0, 0, 0])
        trace.preferences = (1, 1, 1)
        violations = check_validity(trace)
        assert violations, "deciding 0 when everyone preferred 1 must be flagged"

    def test_termination_with_deadline(self, good_trace):
        assert check_termination(good_trace, deadline=3) == []
        assert check_termination(good_trace, deadline=1) != []

    def test_termination_detects_undecided(self):
        trace = simulate(MinProtocol(2), 4, all_ones(4), horizon=2)
        violations = check_termination(trace)
        assert len(violations) == 4

    def test_termination_for_faulty_flag(self):
        from repro.failures import FailurePattern

        pattern = FailurePattern.silent(4, faulty=[0], horizon=5)
        trace = simulate(MinProtocol(1), 4, all_ones(4), pattern)
        assert check_termination(trace, include_faulty=True) == []


class TestReport:
    def test_ok_report(self, good_trace):
        report = check_eba(good_trace, deadline=3)
        assert report.ok
        assert report.violations() == []
        assert "OK" in repr(report)

    def test_violating_report(self, split_trace):
        report = check_eba(split_trace)
        assert not report.ok
        assert report.agreement
        assert "violation" in repr(report)

    def test_require_eba_raises(self, split_trace, capsys):
        code = main(["run", "--protocol", "naive0", "--scenario", "intro", "--n", "4", "--t", "1"])
        out = capsys.readouterr().out
        assert code == 1
        violations = check_eba(split_trace, deadline=3).violations()
        assert violations
        assert all(f"  - {violation}" in out for violation in violations)

    def test_require_eba_returns_report_when_ok(self, good_trace, capsys):
        code = main(["run", "--protocol", "min", "--n", "4", "--t", "1",
                     "--preferences", "0,1,1,1"])
        assert code == 0
        assert check_eba(good_trace, deadline=3).ok
        assert "EBA specification: OK" in capsys.readouterr().out
