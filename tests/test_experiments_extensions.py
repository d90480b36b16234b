"""Tests for the extension experiments E9 (crash vs omission) and E10 (optimality probe)."""

import pytest

from repro.experiments import crash_comparison, optimality_probe


class TestCrashComparison:
    @pytest.fixture(scope="class", params=[(5, 2, 12), (8, 3, 25)],
                    ids=lambda p: "n{}_t{}_count{}".format(*p))
    def rows(self, request):
        n, t, count = request.param
        return crash_comparison.measure(n=n, t=t, count=count, seed=17)

    def test_naive_protocol_is_correct_under_crashes(self, rows):
        crash_rows = [row for row in rows if row.failure_model.startswith("Crash")]
        naive = next(row for row in crash_rows if row.protocol == "P_naive0")
        assert naive.spec_violations == 0
        assert naive.never_later_than_pmin

    def test_naive_protocol_breaks_under_omissions(self, rows):
        omission_rows = [row for row in rows if "counterexample" in row.failure_model]
        naive = next(row for row in omission_rows if row.protocol == "P_naive0")
        assert naive.spec_violations == 1

    def test_chain_protocols_correct_under_both_models(self, rows):
        for row in rows:
            if row.protocol in ("P_min", "P_basic"):
                assert row.spec_violations == 0, row

    def test_termination_bound_respected_under_crashes(self, rows):
        for row in rows:
            if row.protocol in ("P_min", "P_basic"):
                assert row.worst_decision_round <= row.t + 2

    def test_workload_contains_staircase(self):
        scenarios = crash_comparison.crash_workload(5, 2, count=3, seed=1)
        assert len(scenarios) == 4

    def test_report_renders(self):
        text = crash_comparison.report(n=4, t=1, count=5)
        assert "crash" in text.lower()
        assert "P_naive0" in text


class TestOptimalityProbe:
    # The exhaustive probes take ~10 s each.
    @pytest.mark.parametrize("probe, max_deviations", [
        (optimality_probe.probe_pmin, 8),
        pytest.param(optimality_probe.probe_pmin, None, marks=pytest.mark.slow),
        pytest.param(optimality_probe.probe_pbasic, None, marks=pytest.mark.slow),
    ], ids=["pmin_8", "pmin_exhaustive", "pbasic_exhaustive"])
    def test_probe_summary(self, probe, max_deviations):
        report = probe(n=3, t=1, max_deviations=max_deviations)
        if max_deviations is None:
            assert report.deviations_tried >= 20
        else:
            assert report.deviations_tried == max_deviations
        assert report.consistent_with_optimality

    def test_summarize_row_accounting(self):
        report = optimality_probe.probe_pmin(n=3, t=1, max_deviations=5)
        row = optimality_probe.summarize(report, 3, 1)
        assert row.deviations == 5
        assert row.refuting == 0
        assert row.spec_breaking + row.dominated_or_incomparable + row.refuting == 5
        assert row.as_row()["protocol"] == "P_min"
