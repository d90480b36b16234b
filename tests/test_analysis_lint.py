"""The invariant linter: rule fixtures, suppressions, baseline, CLI, and the
repo-wide clean-run guarantee."""

import json
from pathlib import Path

import pytest

from repro.analysis.lint import (
    Baseline,
    BaselineEntry,
    LintConfig,
    all_rule_codes,
    lint_paths,
    load_baseline,
    main as lint_main,
    parse_suppressions,
    render_json,
    write_baseline,
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


# ------------------------------------------------------------------ baseline


class TestBaseline:
    def test_round_trip(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        first = lint_fixture("det_positive.py")
        assert first.new, "fixture must produce findings"

        write_baseline(baseline_path, first.findings, Baseline([]))
        reloaded = load_baseline(baseline_path)
        assert len(reloaded.entries) == len(first.findings)

        second = lint_paths([FIXTURES / "det_positive.py"],
                            config=LintConfig(), baseline=reloaded)
        assert second.new == []
        assert len(second.baselined) == len(first.findings)
        assert second.stale == []
        assert second.exit_code(strict=True) == 0

    def test_justifications_survive_rewrite(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        result = lint_fixture("det_positive.py")
        write_baseline(baseline_path, result.findings, Baseline([]))
        data = json.loads(baseline_path.read_text())
        data["entries"][0]["justification"] = "grandfathered: fixture demo"
        baseline_path.write_text(json.dumps(data))

        previous = load_baseline(baseline_path)
        write_baseline(baseline_path, result.findings, previous)
        rewritten = load_baseline(baseline_path)
        assert any(e.justification == "grandfathered: fixture demo"
                   for e in rewritten.entries)

    def test_stale_entries_fail_strict(self):
        stale_entry = BaselineEntry(
            path="tests/data/lint_fixtures/det_negative.py", rule="DET001",
            message="never matches", justification="obsolete")
        result = lint_paths([FIXTURES / "det_negative.py"],
                            config=LintConfig(),
                            baseline=Baseline([stale_entry]))
        assert result.new == []
        assert result.stale == [stale_entry]
        assert result.exit_code(strict=False) == 0
        assert result.exit_code(strict=True) == 1

    def test_baseline_is_a_multiset(self):
        result = lint_fixture("det_positive.py")
        det1 = [f for f in result.findings if f.rule == "DET001"]
        assert len(det1) == 2
        # Cover only ONE of the two identical-rule findings: the other must
        # stay new (entries are consumed, not wildcards).
        one = BaselineEntry(path=det1[0].path, rule=det1[0].rule,
                            message=det1[0].message, justification="one")
        partial = lint_paths([FIXTURES / "det_positive.py"],
                             config=LintConfig(), baseline=Baseline([one]))
        assert len([f for f in partial.baselined if f.rule == "DET001"]) == 1


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
        assert report["version"] == 1
        assert report["counts"]["new"] == len(result.new)
        assert all({"path", "line", "col", "rule", "message"}
                   <= set(entry) for entry in report["findings"])

    def test_cli_list_rules_and_fixture_failure(self, tmp_path, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out and "LOCK001" in out

        exit_code = lint_main([str(FIXTURES / "det_positive.py"),
                               "--baseline", str(tmp_path / "none.json")])
        assert exit_code == 1

    def test_cli_write_baseline(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        assert lint_main([str(FIXTURES / "det_positive.py"),
                          "--baseline", str(baseline_path),
                          "--write-baseline"]) == 0
        assert baseline_path.exists()
        assert lint_main([str(FIXTURES / "det_positive.py"),
                          "--baseline", str(baseline_path)]) == 0

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "does-not-exist")]) == 2


# -------------------------------------------------------------- repo hygiene


class TestRepoHygiene:
    """The linter's own verdict on the production tree is part of the suite:
    a regression that reintroduces a violation fails here, not just in CI."""

    def test_repo_is_clean_under_the_committed_baseline(self):
        baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
        result = lint_paths([SRC], config=LintConfig(), baseline=baseline,
                            root=REPO_ROOT)
        assert result.new == [], "\n".join(f.render() for f in result.new)
        assert result.exit_code(strict=True) == 0, (
            "stale baseline entries: " + repr(result.stale))

    @pytest.mark.parametrize("module", [
        "service/jobs.py", "store/store.py"])
    def test_jobs_and_store_pin_zero_lock_det_findings(self, module):
        """PR satellite: jobs.py and store.py carry no LOCK/DET findings at
        all — not even baselined or suppressed ones."""
        result = lint_paths([SRC / module], config=LintConfig())
        flagged = [f for f in result.findings + result.suppressed
                   if f.family in {"LOCK", "DET"}]
        assert flagged == [], "\n".join(f.render() for f in flagged)
