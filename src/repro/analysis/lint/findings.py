"""The finding record shared by every checker, the runner, and the CLI."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict

__all__ = ["Finding", "finding_sort_key"]


@dataclass(frozen=True)
class Finding:
    """One lint violation at a source location.

    ``path`` is the path the file was scanned under (relative where
    possible), ``rule`` is a registry code like ``DET001``, and ``message``
    is the human sentence.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    @property
    def family(self) -> str:
        """The rule family — the code with trailing digits stripped."""
        return self.rule.rstrip("0123456789")

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


def finding_sort_key(finding: Finding) -> "tuple[str, int, int, str, str]":
    return (finding.path, finding.line, finding.col, finding.rule,
            finding.message)


def at_node(path: str, node: ast.AST, rule: str, message: str) -> Finding:
    """A finding anchored at an AST node's location."""
    return Finding(path=path, line=getattr(node, "lineno", 1),
                   col=getattr(node, "col_offset", 0) + 1, rule=rule,
                   message=message)
