"""Collect files, run every registered checker, apply suppressions, and
render the result."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# Importing the subpackage registers every built-in checker with CHECKERS.
from . import checkers as _checkers  # noqa: F401
from .findings import Finding, finding_sort_key
from .registry import CHECKERS, FileContext, LintConfig, module_path_for
from .suppressions import parse_suppressions

__all__ = ["LintResult", "collect_files", "lint_paths", "render_human",
           "render_json"]


@dataclass
class LintResult:
    """Everything one lint invocation learned."""

    #: Findings not covered by a suppression comment, sorted — these fail
    #: the build.
    findings: List[Finding] = field(default_factory=list)
    #: Findings silenced by suppression comments (informational).
    suppressed: List[Finding] = field(default_factory=list)
    #: How many files were scanned.
    files: int = 0

    def exit_code(self) -> int:
        return 1 if self.findings else 0


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand directories to their ``*.py`` files, sorted for determinism."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(p for p in path.rglob("*.py")
                                if "__pycache__" not in p.parts))
        else:
            files.append(path)
    unique: Dict[Path, None] = {}
    for path in files:
        unique.setdefault(path, None)
    return list(unique)


def _relativize(path: Path, root: Optional[Path]) -> str:
    base = root if root is not None else Path.cwd()
    try:
        return path.resolve().relative_to(base.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _parse(path: Path, display: str
           ) -> "Tuple[Optional[ast.Module], Optional[Finding], str]":
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as error:
        return None, Finding(display, 1, 1, "PARSE001",
                             f"cannot read file: {error}"), ""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return None, Finding(display, error.lineno or 1,
                             (error.offset or 0) + 1, "PARSE001",
                             f"syntax error: {error.msg}"), source
    return tree, None, source


def lint_paths(paths: Sequence[Path], config: Optional[LintConfig] = None,
               root: Optional[Path] = None) -> LintResult:
    """Lint ``paths`` (files or directories) and return the result."""
    config = config if config is not None else LintConfig()
    result = LintResult()

    contexts: List[FileContext] = []
    raw: List[Finding] = []
    for path in collect_files(paths):
        display = _relativize(path, root)
        tree, parse_finding, source = _parse(path, display)
        result.files += 1
        if parse_finding is not None:
            raw.append(parse_finding)
            continue
        assert tree is not None
        contexts.append(FileContext(
            path=display, module_path=module_path_for(path), source=source,
            tree=tree, config=config))

    checkers = [cls() for cls in CHECKERS]
    for ctx in contexts:
        file_findings: List[Finding] = []
        for checker in checkers:
            file_findings.extend(checker.check(ctx))
        if not file_findings:
            continue
        suppressions = parse_suppressions(ctx.source)
        for finding in file_findings:
            if suppressions.is_suppressed(finding):
                result.suppressed.append(finding)
            else:
                raw.append(finding)

    result.findings = sorted(raw, key=finding_sort_key)
    result.suppressed.sort(key=finding_sort_key)
    return result


def render_human(result: LintResult) -> str:
    """The terminal report: one line per finding plus a summary."""
    lines: List[str] = [finding.render() for finding in result.findings]
    lines.append(f"{result.files} files scanned: "
                 f"{len(result.findings)} finding(s), "
                 f"{len(result.suppressed)} suppressed")
    return "\n".join(lines)


def render_json(result: LintResult) -> Dict[str, object]:
    """The machine report (``--json``)."""
    return {
        "version": 2,
        "files": result.files,
        "findings": [f.as_dict() for f in result.findings],
        "suppressed": [f.as_dict() for f in result.suppressed],
        "counts": {
            "findings": len(result.findings),
            "suppressed": len(result.suppressed),
        },
    }


def iter_rule_lines() -> Iterable[str]:
    """``--list-rules`` output: code, then description."""
    from .registry import all_rule_codes
    for code, description in all_rule_codes().items():
        yield f"{code}  {description}"
