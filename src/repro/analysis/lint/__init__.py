"""``repro.analysis.lint`` — an AST-based invariant linter.

The conventions that keep this reproduction byte-identical and thread-safe
(sorted iteration before serialization, guarded shared state, output only
through ``repro.obs``) are enforced mechanically here, the way the
differential oracles enforce the semantic ones.  Three rule families ship
built-in — **DET** (determinism), **LOCK** (lock discipline) and **OBS**
(observability hygiene) — behind a registry that third parties extend with
:func:`register`.

Workflow surfaces: ``repro-eba lint`` / ``tools/repro_lint.py`` (CI) and a
per-line suppression comment (``# repro-lint: disable=RULE``), the one way
to accept a finding.  See ``docs/static-analysis.md``.
"""

from .cli import add_lint_arguments, main, run_lint_command
from .findings import Finding
from .registry import (BUILTIN_GUARDS, CHECKERS, Checker, FileContext,
                       GuardSpec, LintConfig, all_rule_codes, register)
from .runner import (LintResult, collect_files, lint_paths, render_human,
                     render_json)
from .suppressions import SuppressionMap, parse_suppressions

__all__ = [
    "BUILTIN_GUARDS",
    "CHECKERS",
    "Checker",
    "FileContext",
    "Finding",
    "GuardSpec",
    "LintConfig",
    "LintResult",
    "SuppressionMap",
    "add_lint_arguments",
    "all_rule_codes",
    "collect_files",
    "lint_paths",
    "main",
    "parse_suppressions",
    "register",
    "render_human",
    "render_json",
    "run_lint_command",
]
