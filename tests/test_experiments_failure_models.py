"""Tests for experiment E12 (failure-model comparison) and its CLI subcommand.

The theorem half encodes the facts the experiment uncovered at n=3, t=1:
Theorem 6.5 (``P_min`` implements ``P0``) survives the receive-omission model,
while Theorem 6.6 (``P_basic`` implements ``P0``) acquires counterexamples —
the knowledge-based program decides strictly earlier than ``P_basic``.  The
(heavier) general-omission counterpart of the same checks lives in
``test_slow_model_checking.py``.
"""

import pytest

from repro.cli import main
from repro.experiments import failure_model_comparison as fmc


class TestModelWorkload:
    def test_each_model_gets_its_named_adversaries(self):
        so = fmc.model_workload("sending-omission", 4, 1, count=3, seed=5)
        ro = fmc.model_workload("receive-omission", 4, 1, count=3, seed=5)
        go = fmc.model_workload("general-omission", 4, 1, count=3, seed=5)
        assert len(so) == 3
        assert len(ro) == 4      # + silent receiver
        assert len(go) == 5      # + partition + mixed chain
        crash = fmc.model_workload("crash", 4, 1, count=3, seed=5)
        assert len(crash) == 4   # + staircase

    def test_workloads_are_admissible_under_their_model(self):
        from repro.failures import make_model
        for key in ("sending-omission", "receive-omission", "general-omission", "crash"):
            model = make_model(key, 4, 1)
            for _prefs, pattern in fmc.model_workload(key, 4, 1, count=3, seed=5):
                assert model.admits(pattern), (key, pattern.describe())


class TestBehaviourSweep:
    @pytest.mark.parametrize("n, t, count, seed", [(4, 1, 4, 7), (8, 2, 25, 23)])
    def test_paper_protocols_stay_correct_across_models(self, n, t, count, seed):
        rows = fmc.measure_behaviour(n=n, t=t, count=count, seed=seed)
        assert len(rows) == 9    # 3 models x 3 protocols
        for row in rows:
            assert row.agreement_violations == 0, row
            assert row.validity_violations == 0, row
            assert row.termination_violations == 0, row
            assert row.worst_decision_round <= row.t + 2


class TestTheoremChecks:
    def test_so_baseline_holds(self):
        rows = fmc.check_theorems("sending-omission", n=3, t=1)
        assert [row.holds for row in rows] == [True, True]

    def test_ro_keeps_6_5_but_breaks_6_6(self):
        rows = fmc.check_theorems("receive-omission", n=3, t=1)
        by_claim = {row.claim: row for row in rows}
        assert by_claim["Theorem 6.5: P_min implements P0"].holds
        basic = by_claim["Theorem 6.6: P_basic implements P0"]
        assert not basic.holds
        assert basic.mismatches > 0


class TestTheoremCheckModelCoercion:
    def test_instances_are_reinstantiated_at_the_theorem_size(self):
        from repro.failures import ReceiveOmissionModel

        rows = fmc.check_theorems(ReceiveOmissionModel(n=4, t=1), n=3, t=1)
        assert all(row.n == 3 for row in rows)
        assert all(row.model == "RO(1)" for row in rows)

    def test_measure_accepts_instances_built_for_the_sweep_size(self):
        from repro.failures import ReceiveOmissionModel

        behaviour, theorems = fmc.measure(
            n=4, t=1, models=[ReceiveOmissionModel(n=4, t=1)], count=2, seed=3,
            theorem_n=3, theorem_t=1)
        assert {row.model for row in behaviour} == {"RO(1)"}
        assert len(theorems) == 2


class TestReport:
    def test_report_renders_both_tables(self):
        text = fmc.report(n=3, t=1, models=("sending-omission", "receive-omission"),
                          count=2, seed=3, theorem_n=3, theorem_t=1)
        assert "protocol behaviour per failure model" in text
        assert "Theorem 6.5 / 6.6" in text
        assert "RO(1)" in text
        assert "False" in text   # the broken 6.6 check is visible

    def test_report_can_skip_theorems(self):
        text = fmc.report(n=3, t=1, models=("receive-omission",), count=2,
                          include_theorems=False)
        assert "Theorem 6.5 / 6.6" not in text
        # No theorem table -> no claims about theorem outcomes either.
        assert "implements P0" not in text

    def test_report_conclusion_matches_what_was_checked(self):
        text = fmc.report(n=3, t=1, models=("sending-omission",), count=2,
                          theorem_n=3, theorem_t=1)
        assert "Every checked claim holds" in text
        assert "counterexample state" not in text


class TestCli:
    def test_failure_models_subcommand(self, capsys):
        code = main(["failure-models", "--model", "receive-omission",
                     "--n", "3", "--t", "1", "--count", "2", "--skip-theorems"])
        captured = capsys.readouterr()
        assert code == 0
        assert "RO(1)" in captured.out
        assert "SO(1)" in captured.out   # the baseline rides along

    def test_failure_free_is_not_a_comparison_choice(self, capsys):
        # The failure-free model has no adversaries (and no failure bound), so
        # the subcommand refuses it at parse time instead of erroring later.
        with pytest.raises(SystemExit):
            main(["failure-models", "--model", "failure-free"])

    def test_e12_registered(self, capsys):
        code = main(["list"])
        captured = capsys.readouterr()
        assert code == 0
        assert "e12" in captured.out
