"""Tests for the experiment drivers (small, fast configurations).

These tests run every experiment at small and moderate sizes and assert the
*shape* of the paper's claims (who wins, by what factor).
"""

import pytest

from repro.experiments import (
    agreement_violation,
    decision_rounds,
    dominance_study,
    example_7_1,
    fip_gap,
    implementation_check,
    message_complexity,
    termination_bound,
)


class TestMessageComplexity:
    @pytest.mark.parametrize("settings, include_fip", [
        (((6, 2),), True),
        (((5, 1), (10, 3), (20, 6), (40, 10)), False),
        (((5, 1), (10, 3), (16, 5)), True),
    ])
    def test_pmin_sends_exactly_n_squared_bits(self, settings, include_fip):
        for measurement in message_complexity.sweep_bits(settings, include_fip=include_fip):
            if measurement.protocol == "P_min":
                assert measurement.bits == measurement.n ** 2
            assert measurement.within_bound

    @pytest.mark.parametrize("settings", [((6, 2),), ((5, 1), (10, 3), (16, 5))])
    def test_ordering_matches_paper(self, settings):
        measurements = message_complexity.sweep_bits(settings)
        for n, _t in settings:
            by_protocol = {}
            for m in measurements:
                if m.n == n:
                    by_protocol.setdefault(m.protocol, []).append(m.bits)
            assert max(by_protocol["P_min"]) <= min(by_protocol["P_basic"])
            assert max(by_protocol["P_basic"]) <= min(by_protocol["P_opt"])
            # The FIP pays at least an order of magnitude more than either
            # limited exchange.
            assert min(by_protocol["P_opt"]) > 10 * max(by_protocol["P_basic"])

    def test_sweep_and_report(self):
        rows = message_complexity.sweep_bits([(4, 1), (5, 2)], include_fip=False)
        assert len(rows) == 2 * 2 * 2
        text = message_complexity.report(settings=((4, 1),), include_fip=False)
        assert "Proposition 8.1" in text


class TestDecisionRounds:
    @pytest.mark.parametrize("n, t", [(5, 1), (6, 2), (10, 2), (10, 3), (20, 5), (20, 8),
                                      (40, 10)])
    def test_all_measurements_match_paper(self, n, t):
        for measurement in decision_rounds.measure_decision_rounds(n, t):
            assert measurement.matches_paper, measurement

    def test_report_renders(self):
        assert "Proposition 8.2" in decision_rounds.report(settings=((4, 1),))


class TestExample71:
    # (20, 10) is the paper's own instance.
    @pytest.mark.parametrize("n, t", [(6, 2), (7, 3), (10, 4), (10, 5), (14, 6), (20, 10)])
    def test_scaled_example_shape(self, n, t):
        measurements = example_7_1.measure_example(n=n, t=t)
        rounds = {m.protocol: m.nonfaulty_decide_by_round for m in measurements}
        assert rounds["P_opt"] == 3
        assert rounds["P_min"] == t + 2
        assert rounds["P_basic"] == t + 2
        assert all(m.decided_value == 1 for m in measurements)

    @pytest.mark.parametrize("n, t", [(6, 2), (8, 4)])
    def test_sweep_only_full_exposure_triggers_common_knowledge(self, n, t):
        measurements = example_7_1.sweep_silent_faulty(n, t)
        opt_rounds = {m.silent_faulty: m.nonfaulty_decide_by_round
                      for m in measurements if m.protocol == "P_opt"}
        min_rounds = {m.silent_faulty: m.nonfaulty_decide_by_round
                      for m in measurements if m.protocol == "P_min"}
        assert opt_rounds[t] == 3
        assert min_rounds[0] == t + 2 and min_rounds[t] == t + 2
        # The FIP is never slower than P_min anywhere in the sweep.
        assert all(opt_rounds[k] <= min_rounds[k] for k in opt_rounds)

    def test_report_renders(self):
        assert "Example 7.1" in example_7_1.report(n=5, t=2, include_sweep=False)


class TestDominance:
    @pytest.fixture(scope="class", params=[(5, 2, 8, 1), (6, 2, 20, 7), (5, 1, 6, 3)],
                    ids=lambda p: "n{}_t{}_count{}_seed{}".format(*p))
    def results(self, request):
        n, t, random_count, seed = request.param
        return dominance_study.study(n=n, t=t, random_count=random_count, seed=seed)

    def test_richer_exchange_is_never_strictly_dominated(self, results):
        # Cross-exchange comparisons may come out strict in favour of the richer
        # information exchange, but never against it (Corollaries 6.7 / 7.8 say
        # each protocol is optimal for its own exchange; a poorer exchange
        # cannot beat it).
        richness = {"P_opt": 3, "P_basic": 2, "P_min": 1, "P_min_delayed(2)": 0}
        for (first, second), result in results.items():
            if richness[first] > richness[second]:
                assert not result.second_strictly_dominates, result.summary()
            if richness[second] > richness[first]:
                assert not result.first_strictly_dominates, result.summary()

    def test_pmin_strictly_dominates_delayed_baseline(self, results):
        result = results[("P_min", "P_min_delayed(2)")]
        assert result.first_strictly_dominates

    def test_opt_never_loses_to_limited_exchange(self, results):
        for (first, second), result in results.items():
            if first == "P_opt":
                assert result.first_dominates

    def test_report_renders(self):
        assert "dominance" in dominance_study.report(n=4, t=1, random_count=3)


class TestTermination:
    @pytest.mark.parametrize("n, t, workload", [
        (5, 2, lambda: termination_bound.adversarial_workload(5, 2, random_count=8, seed=2)),
        (8, 3, lambda: termination_bound.adversarial_workload(8, 3, random_count=30, seed=3)),
        pytest.param(3, 1, lambda: termination_bound.exhaustive_workload(3, 1),
                     marks=pytest.mark.slow),
    ], ids=["adversarial_n5", "adversarial_n8", "exhaustive_n3"])
    def test_worst_case_within_bound(self, n, t, workload):
        for measurement in termination_bound.measure_termination(n, t, workload()):
            assert measurement.within_bound
            assert measurement.spec_violations == 0
            assert measurement.worst_decision_round <= t + 2

    def test_exhaustive_small_workload(self):
        scenarios = termination_bound.exhaustive_workload(3, 1, horizon=1)
        assert len(scenarios) == (1 + 3 * 4) * 8

    def test_report_renders(self):
        assert "Proposition 6.1" in termination_bound.report(n=4, t=1, random_count=4)


class TestAgreementViolation:
    @pytest.mark.parametrize("sizes", [((5, 2),), ((3, 1), (4, 1), (6, 2), (8, 3), (10, 4))])
    def test_naive_breaks_and_chain_protocols_do_not(self, sizes):
        measurements = agreement_violation.sweep(sizes)
        for measurement in measurements:
            if measurement.expected_to_break:
                assert not measurement.agreement_holds, measurement
            else:
                assert measurement.agreement_holds, measurement
        assert len([m for m in measurements if m.protocol == "P_naive0"]) == len(sizes)

    def test_report_renders(self):
        assert "counterexample" in agreement_violation.report(sizes=((3, 1),))


class TestImplementationCheck:
    def test_measurements_all_hold(self):
        for measurement in implementation_check.measure(n=3, t=1, include_equivalence=False):
            assert measurement.holds

    def test_report_renders(self):
        text = implementation_check.report(n=3, t=1)
        assert "Theorem 6.5" in text and "Theorem 6.6" in text


class TestFipGap:
    @pytest.mark.parametrize("n, t, count, seed", [(5, 2, 10, 5), (8, 3, 30, 11)])
    def test_random_gap_is_small(self, n, t, count, seed):
        for measurement in fip_gap.random_gap_study(n=n, t=t, count=count, seed=seed):
            assert measurement.mean_gap <= 1.0
            assert measurement.max_gap <= t + 1
            assert measurement.fraction_equal >= 0.5

    @pytest.mark.parametrize("n, t, min_max_gap", [(6, 2, 1), (8, 3, 2)])
    def test_worst_case_gap_ranks_protocols(self, n, t, min_max_gap):
        measurements = {m.protocol: m for m in fip_gap.worst_case_gap_study(n=n, t=t)}
        assert measurements["P_min"].mean_gap >= measurements["P_basic"].mean_gap
        assert measurements["P_min"].max_gap >= min_max_gap

    def test_report_renders(self):
        assert "P_opt" in fip_gap.report(n=5, t=1, count=5)
