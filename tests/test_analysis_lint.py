"""The invariant linter: rule fixtures, suppressions, CLI, and the repo-wide
clean-run guarantee."""

from pathlib import Path

import pytest

from repro.analysis.lint import (
    LintConfig,
    all_rule_codes,
    lint_paths,
    main as lint_main,
    parse_suppressions,
    render_json,
)

FIXTURES = Path(__file__).parent / "data" / "lint_fixtures"
REPO_ROOT = Path(__file__).parent.parent
SRC = REPO_ROOT / "src" / "repro"


def rules_in(result):
    return {finding.rule for finding in result.findings}


def lint_fixture(name):
    return lint_paths([FIXTURES / name], config=LintConfig())


# --------------------------------------------------------------------- rules


class TestDeterminismRules:
    def test_positive_fixture_fires_every_rule(self):
        result = lint_fixture("det_positive.py")
        assert rules_in(result) == {"DET001", "DET002", "DET003"}
        # Both sink shapes (json.dumps and str.join) are caught.
        det1 = [f for f in result.findings if f.rule == "DET001"]
        assert len(det1) == 2
        # Both random call shapes, both enumeration shapes.
        assert len([f for f in result.findings if f.rule == "DET002"]) == 2
        assert len([f for f in result.findings if f.rule == "DET003"]) == 2

    def test_negative_fixture_is_clean(self):
        result = lint_fixture("det_negative.py")
        assert result.findings == []
        assert result.suppressed == []


class TestLockRules:
    def test_positive_fixture_fires(self):
        result = lint_fixture("lock_positive.py")
        assert rules_in(result) == {"LOCK001"}
        messages = [f.message for f in result.findings]
        # Declared via _GUARDED_BY: the unlocked increment and read.
        assert any("Cache._bytes" in m for m in messages)
        assert any("Cache._entries" in m for m in messages)
        # The closure defined under the lock still counts as unlocked.
        closure = [f for f in result.findings if "clear" in
                   (FIXTURES / "lock_positive.py").read_text()
                   .splitlines()[f.line - 1]]
        assert closure, "lambda body access must be flagged"
        # Built-in contract by class name (EventBus).
        assert any("EventBus._subscribers" in m for m in messages)

    def test_negative_fixture_is_clean(self):
        result = lint_fixture("lock_negative.py")
        assert result.findings == []


class TestObsRules:
    def test_positive_fixture_fires(self):
        result = lint_fixture("obs_positive.py")
        assert rules_in(result) == {"OBS001", "OBS002"}
        assert len([f for f in result.findings if f.rule == "OBS001"]) == 3
        assert len([f for f in result.findings if f.rule == "OBS002"]) == 4

    def test_negative_fixture_is_clean(self):
        result = lint_fixture("obs_negative.py")
        assert result.findings == []


# --------------------------------------------------------------- suppressions


class TestSuppressions:
    def test_fixture_findings_are_all_suppressed(self):
        result = lint_fixture("suppressed.py")
        assert result.findings == []
        rules = {f.rule for f in result.suppressed}
        assert rules == {"DET001", "LOCK001"}
        assert len(result.suppressed) == 3

    def test_trailing_and_standalone_placement(self):
        source = (
            "import json\n"
            "a = json.dumps(list({1}))  # repro-lint: disable=DET001\n"
            "# repro-lint: disable=DET001\n"
            "b = json.dumps(list({2}))\n"
        )
        suppressions = parse_suppressions(source)
        assert suppressions
        from repro.analysis.lint import Finding
        assert suppressions.is_suppressed(Finding("x", 2, 1, "DET001", "m"))
        assert suppressions.is_suppressed(Finding("x", 4, 1, "DET001", "m"))
        assert not suppressions.is_suppressed(Finding("x", 4, 1, "OBS001", "m"))

    def test_family_and_all_selectors(self):
        source = (
            "x = 1  # repro-lint: disable=DET\n"
            "y = 2  # repro-lint: disable=all\n"
        )
        suppressions = parse_suppressions(source)
        from repro.analysis.lint import Finding
        assert suppressions.is_suppressed(Finding("x", 1, 1, "DET003", "m"))
        assert not suppressions.is_suppressed(Finding("x", 1, 1, "LOCK001", "m"))
        assert suppressions.is_suppressed(Finding("x", 2, 1, "LOCK001", "m"))


# ----------------------------------------------------------------- framework


class TestFramework:
    def test_rule_registry_covers_the_three_families(self):
        codes = all_rule_codes()
        families = {code.rstrip("0123456789") for code in codes}
        assert {"DET", "LOCK", "OBS"} <= families

    def test_syntax_errors_become_parse_findings(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        result = lint_paths([bad], config=LintConfig())
        assert [f.rule for f in result.findings] == ["PARSE001"]

    def test_json_report_shape(self):
        result = lint_fixture("obs_positive.py")
        report = render_json(result)
        assert report["version"] == 2
        assert report["counts"]["findings"] == len(result.findings)
        assert all({"path", "line", "col", "rule", "message"}
                   <= set(entry) for entry in report["findings"])

    def test_cli_list_rules_and_fixture_failure(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out and "LOCK001" in out

        exit_code = lint_main([str(FIXTURES / "det_positive.py")])
        assert exit_code == 1

    @pytest.mark.parametrize("flag", ["--baseline", "--write-baseline", "--strict"])
    def test_there_is_no_baseline(self, capsys, flag):
        """An in-line suppression is the one way to accept a finding."""
        with pytest.raises(SystemExit):
            lint_main([str(FIXTURES / "det_positive.py"), flag])

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "does-not-exist")]) == 2


# -------------------------------------------------------------- repo hygiene


class TestRepoHygiene:
    """The linter's own verdict on the production tree is part of the suite:
    a regression that reintroduces a violation fails here, not just in CI."""

    def test_repo_is_clean(self):
        result = lint_paths([SRC], config=LintConfig(), root=REPO_ROOT)
        assert result.findings == [], "\n".join(f.render() for f in result.findings)
        assert result.exit_code() == 0

    @pytest.mark.parametrize("module", [
        "service/jobs.py", "store/store.py"])
    def test_jobs_and_store_pin_zero_lock_det_findings(self, module):
        """jobs.py and store.py carry no LOCK/DET findings at all — not even
        suppressed ones."""
        result = lint_paths([SRC / module], config=LintConfig())
        flagged = [f for f in result.findings + result.suppressed
                   if f.family in {"LOCK", "DET"}]
        assert flagged == [], "\n".join(f.render() for f in flagged)
