#!/usr/bin/env python3
"""Check that relative markdown links in the repo's docs resolve to real files.

Scans the top-level ``*.md`` files plus ``docs/`` and ``examples/`` for
``[text](target)`` links, ignores external (``http(s)://``, ``mailto:``) and
pure-anchor targets, and fails if a referenced path does not exist relative to
the file containing the link.  Run it from anywhere::

    python tools/check_links.py

Exit code 0 means every link resolves; 1 lists the broken ones.  CI's docs job
runs this so README/architecture links cannot rot silently.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Matches [text](target); deliberately simple — the docs use plain links.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Pages the docs set must always ship — a rename or deletion that forgets to
#: update this roster (and the links pointing at the page) fails the docs job.
EXPECTED_PAGES = (
    "README.md",
    "ROADMAP.md",
    "docs/architecture.md",
    "docs/performance.md",
    "docs/benchmark.md",
    "docs/observability.md",
    "docs/static-analysis.md",
)


def iter_markdown_files() -> list[Path]:
    files = sorted(REPO_ROOT.glob("*.md"))
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    files.extend(sorted((REPO_ROOT / "examples").glob("*.md")))
    return files


def broken_links(path: Path) -> list[str]:
    broken: list[str] = []
    text = path.read_text(encoding="utf-8")
    for match in LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        if not (path.parent / relative).exists():
            broken.append(f"{path.relative_to(REPO_ROOT)}: broken link -> {target}")
    return broken


def main() -> int:
    problems: list[str] = []
    for name in EXPECTED_PAGES:
        if not (REPO_ROOT / name).exists():
            problems.append(f"expected doc page is missing: {name}")
    checked = 0
    for path in iter_markdown_files():
        checked += 1
        problems.extend(broken_links(path))
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print(f"checked {checked} markdown files, all relative links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
