"""Argument handling shared by ``repro-eba lint`` and ``tools/repro_lint.py``.

Exit codes: 0 clean (or everything suppressed), 1 findings, 2 bad invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .registry import LintConfig
from .runner import iter_rule_lines, lint_paths, render_human, render_json

__all__ = ["add_lint_arguments", "run_lint_command", "main"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint flags to ``parser`` (shared with the repro-eba CLI)."""
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: src/repro)")
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable report on stdout")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every registered rule code and exit")


def run_lint_command(args: argparse.Namespace,
                     stdout=None) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    if args.list_rules:
        for line in iter_rule_lines():
            print(line, file=out)
        return 0

    raw_paths: Sequence[str] = args.paths or ["src/repro"]
    paths: List[Path] = []
    for raw in raw_paths:
        path = Path(raw)
        if not path.exists():
            print(f"repro-lint: no such path: {raw}", file=sys.stderr)
            return 2
        paths.append(path)

    result = lint_paths(paths, config=LintConfig())
    if args.as_json:
        print(json.dumps(render_json(result), indent=2, sort_keys=True),
              file=out)
    else:
        print(render_human(result), file=out)
    return result.exit_code()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``tools/repro_lint.py``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based invariant linter for the repro codebase")
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    return run_lint_command(args)
