"""The docs stay honest: README doctests run, relative links resolve, and
every name a module's ``__all__`` exports exists.

CI's docs job runs the first two checks standalone (``python -m doctest`` and
``tools/check_links.py``); running them in tier-1 as well means a PR cannot
land with a rotted quickstart or a dangling link even before CI.
"""

import doctest
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_links  # noqa: E402


class TestReadmeDoctests:
    def test_readme_examples_run(self):
        results = doctest.testfile(str(REPO_ROOT / "README.md"),
                                   module_relative=False, verbose=False)
        assert results.failed == 0, f"{results.failed} README doctest(s) failed"
        assert results.attempted > 0, "README should contain runnable examples"

    def test_quickstart_example_runs_clean(self):
        """The README's quickstart mirror (examples/quickstart.py) stays runnable."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")] +
            ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning",
             str(REPO_ROOT / "examples" / "quickstart.py")],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "EBA spec : OK" in proc.stdout


class TestDocLinks:
    def test_all_relative_markdown_links_resolve(self):
        problems = []
        for path in check_links.iter_markdown_files():
            problems.extend(check_links.broken_links(path))
        assert not problems, "\n".join(problems)

    def test_the_expected_docs_exist(self):
        for name in ("README.md", "docs/architecture.md", "docs/performance.md",
                     "docs/benchmark.md", "docs/observability.md",
                     "docs/static-analysis.md"):
            assert (REPO_ROOT / name).exists(), name

    def test_expected_pages_match_check_links(self):
        """tools/check_links.py's EXPECTED_PAGES is the same roster."""
        for name in check_links.EXPECTED_PAGES:
            assert (REPO_ROOT / name).exists(), name
        assert "docs/observability.md" in check_links.EXPECTED_PAGES
        assert "docs/static-analysis.md" in check_links.EXPECTED_PAGES


class TestPublicSurface:
    def test_every_all_name_resolves(self):
        """A re-export left behind by a deletion fails here, not at import time."""
        modules = [repro] + [importlib.import_module(info.name) for info in
                             pkgutil.walk_packages(repro.__path__, "repro.")]
        stale = [f"{module.__name__}.{name}" for module in modules
                 for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert len(modules) > 50
        assert not stale, stale


#: Names deleted from the library.  Extend the tuple with every later deletion
#: so docs, examples and source cannot keep naming what is gone.
REMOVED_NAMES = (
    "PointSet", "iter_mask_points", "satisfying_mask", "time_mask",
    "nonfaulty_mask", "init_mask", "decided_mask", "full_mask", "class_masks",
    "point_set", "run_weights", "weighted_run_count", "pattern_weights",
    "SYMMETRY_MODES", "execute_batch", "execute_batches", "simulate_batch",
    "BatchTask", "_execute_batch_chunk", "_CancelGuard", "executor_from_flags",
    "_make_executor", "PatternOrbit", "enumerate_orbits", "count_orbits",
    "symmetry_reduced_workload", "_is_current", "_theorem_parts", "_selection",
    "run_metrics", "aggregate_metrics", "decision_round_histogram",
    "nonfaulty_decision_rounds", "last_nonfaulty_decision_round", "RunMetrics",
    "AggregateMetrics", "swap_roles", "exhibits_faulty_behaviour", "with_omission",
    "without_omission", "with_receive_omission", "without_receive_omission",
    "restrict_to", "with_faulty", "silent_senders", "deaf_receivers",
    "blocked_senders", "send_restriction", "random_model_adversaries",
    "iter_faulty_sets", "hears_from", "hears_from_frontier", "received_zero_chain",
    "build_system_for_model", "mask_to_words", "words_to_mask", "render_comm_graph",
    "format_histogram", "format_comparison", "run_sweep", "compare_protocols",
    "pairwise_comparison", "as_sweep", "with_n", "exhaustive_workload",
    "default_protocols", "with_zero_fraction", "single_one", "all_agents",
    "format_agent_set", "other_value", "labelled_edges", "possibly_nonfaulty",
    "encode_protocol", "require_eba", "prescribed_actions", "reachable_states",
    "BatchResult", "SpecificationViolation", "uptime_clock", "reset_once_cache",
    "walk_with_parents", "is_decide_notification", "execute_task",
    "supports_optimality",
)


def _current_text_files():
    """README, docs, examples and library source; CHANGES/ROADMAP/BENCH are history."""
    yield REPO_ROOT / "README.md"
    yield from sorted((REPO_ROOT / "docs").glob("*.md"))
    yield from sorted((REPO_ROOT / "examples").rglob("*.py"))
    yield from sorted((REPO_ROOT / "src").rglob("*.py"))


_REMOVED_NAME = re.compile(r"\b(?:" + "|".join(map(re.escape, REMOVED_NAMES)) + r")\b")


class TestRemovedNames:
    def test_no_removed_name_is_mentioned(self):
        hits = []
        for path in _current_text_files():
            text = path.read_text(encoding="utf-8")
            for number, line in enumerate(text.splitlines(), 1):
                hits.extend(f"{path.relative_to(REPO_ROOT)}:{number}: {match}"
                            for match in _REMOVED_NAME.findall(line))
        assert not hits, "\n".join(hits)

    def test_pattern_matches_whole_names_only(self):
        assert _REMOVED_NAME.findall("system.time_mask(0) | PointSet(bits)") == [
            "time_mask", "PointSet"]
        assert _REMOVED_NAME.findall("`SYMMETRY_MODES`, run_weights=") == [
            "SYMMETRY_MODES", "run_weights"]
        assert not _REMOVED_NAME.findall("time_words(0) PointSets my_full_mask_x")
