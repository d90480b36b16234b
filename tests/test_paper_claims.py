"""Integration tests: the paper's headline claims, end to end.

One test per claim, at sizes small enough to run in seconds.
``test_experiments.py`` checks the same quantities through the experiment
drivers, at larger sizes as well.
"""

import pytest

from repro.api import Sweep
from repro.experiments import decision_rounds, implementation_check, message_complexity
from repro.failures import SendingOmissionModel
from repro.protocols import (
    BasicProtocol,
    DelayedMinProtocol,
    MinProtocol,
    NaiveZeroBiasedProtocol,
    OptimalFipProtocol,
)
from repro.simulation import simulate
from repro.spec import check_eba
from repro.workloads import (
    enumerate_preferences,
    example_7_1 as example_7_1_scenario,
    intro_counterexample,
)


class TestProposition61:
    """Correctness and the t+2 termination bound, exhaustively for n=4, t=1."""

    @pytest.mark.parametrize("protocol_factory", [MinProtocol, BasicProtocol])
    def test_exhaustive_correctness_small_system(self, protocol_factory):
        n, t = 4, 1
        protocol = protocol_factory(t)
        model = SendingOmissionModel(n=n, t=t)
        checked = 0
        for pattern in model.enumerate(horizon=t + 2):
            for preferences in ((0, 1, 1, 1), (1, 1, 1, 1), (1, 0, 1, 0)):
                trace = simulate(protocol, n, preferences, pattern)
                report = check_eba(trace, deadline=t + 2, validity_for_faulty=True,
                                   termination_for_faulty=True)
                assert report.ok, report.violations()
                checked += 1
        assert checked > 1000

    def test_popt_correctness_over_all_preferences(self):
        n, t = 4, 1
        protocol = OptimalFipProtocol(t)
        model = SendingOmissionModel(n=n, t=t)
        patterns = [model.failure_free()] + [
            pattern for pattern in model.enumerate(horizon=t + 2)
            if pattern.num_faulty == 1 and len(pattern.omissions) in (3, 6)
        ][:40]
        for pattern in patterns:
            for preferences in enumerate_preferences(n):
                trace = simulate(protocol, n, preferences, pattern)
                report = check_eba(trace, deadline=t + 2, validity_for_faulty=True)
                assert report.ok, report.violations()


class TestIntroductionCounterexample:
    def test_naive_zero_bias_is_impossible_under_omissions(self):
        preferences, pattern = intro_counterexample(n=4, t=1)
        naive = simulate(NaiveZeroBiasedProtocol(1), 4, preferences, pattern)
        assert check_eba(naive).agreement
        for protocol in (MinProtocol(1), BasicProtocol(1), OptimalFipProtocol(1)):
            trace = simulate(protocol, 4, preferences, pattern)
            assert check_eba(trace).ok


class TestTheorems65And66:
    def test_implementation_checks_hold(self):
        for measurement in implementation_check.measure(n=3, t=1, include_fip=False):
            assert measurement.holds, measurement.claim


class TestTheoremA21:
    def test_popt_implements_p1_in_gamma_fip(self):
        # Proposition 7.9 / Theorem A.21: the communication-graph tests of
        # P_opt coincide with the model-checked knowledge-based program P1 at
        # every reachable local state of the full-information context.
        report = implementation_check.check_theorem("a21", n=3, t=1)
        assert report.ok, report.mismatches
        assert report.checked_states > 400


class TestExample71:
    def test_fip_decides_in_round_3_while_limited_exchanges_wait(self):
        n, t = 9, 4
        preferences, pattern = example_7_1_scenario(n=n, t=t)
        rounds = {}
        for protocol in (MinProtocol(t), BasicProtocol(t), OptimalFipProtocol(t)):
            trace = simulate(protocol, n, preferences, pattern)
            rounds[protocol.name] = trace.last_decision_round(nonfaulty_only=True)
        assert rounds["P_opt"] == 3
        assert rounds["P_min"] == t + 2
        assert rounds["P_basic"] == t + 2
        assert rounds["P_min"] - rounds["P_opt"] == t - 1

    def test_ablation_common_knowledge_rules_are_what_makes_p_opt_fast(self):
        n, t = 8, 4
        preferences, pattern = example_7_1_scenario(n=n, t=t)
        with_ck = simulate(OptimalFipProtocol(t), n, preferences, pattern)
        without_ck = simulate(OptimalFipProtocol(t, use_common_knowledge=False), n,
                              preferences, pattern)
        assert with_ck.last_decision_round(nonfaulty_only=True) == 3
        assert without_ck.last_decision_round(nonfaulty_only=True) == t + 2


class TestProposition81:
    def test_bit_complexity_shape(self):
        rows = message_complexity.measure_bits(
            8, 3, [MinProtocol(3), BasicProtocol(3), OptimalFipProtocol(3)])
        bits = {}
        for row in rows:
            bits.setdefault(row.protocol, set()).add(row.bits)
        assert bits["P_min"] == {64}
        assert max(bits["P_basic"]) <= 4 * 64 * 4
        assert min(bits["P_opt"]) > max(bits["P_basic"])


class TestProposition82:
    def test_failure_free_rounds(self):
        for measurement in decision_rounds.measure_decision_rounds(8, 3):
            assert measurement.matches_paper, measurement


class TestCorollary67:
    def test_pmin_is_not_strictly_dominated_in_gamma_min(self):
        # Compare P_min against a delayed competitor over every preference vector
        # for a handful of adversaries: the competitor never strictly dominates.
        n, t = 4, 1
        model = SendingOmissionModel(n=n, t=t)
        patterns = [model.failure_free(),
                    model.sample(__import__("random").Random(0), horizon=3),
                    model.sample(__import__("random").Random(1), horizon=3)]
        scenarios = [(prefs, pattern)
                     for pattern in patterns for prefs in enumerate_preferences(n)]
        result = (Sweep.of(DelayedMinProtocol(t, delay=1), MinProtocol(t)).on(scenarios, n=n)
                  .run().compare("P_min_delayed(1)", "P_min"))
        assert not result.first_strictly_dominates
        assert result.second_dominates
