"""Checker registry, per-file context, and the lint configuration.

A checker is a class with a ``family`` (``DET``, ``LOCK``, ...), a ``codes``
table mapping each rule code it can emit to a one-line description, and a
``check(ctx)`` method yielding :class:`~.findings.Finding` objects for one
parsed file.  Registration is declarative::

    @register
    class DeterminismChecker:
        family = "DET"
        codes = {"DET001": "..."}
        def check(self, ctx): ...

The runner instantiates every registered checker once per invocation and
feeds each file's :class:`FileContext` through all of them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Tuple, Type

from .findings import Finding, at_node

__all__ = [
    "CHECKERS", "Checker", "FileContext", "GuardSpec", "LintConfig",
    "all_rule_codes", "register",
]


class Checker:
    """Protocol-style base class for checkers (subclassing is optional)."""

    family: str = ""
    codes: Dict[str, str] = {}

    def check(self, ctx: "FileContext") -> Iterable[Finding]:
        raise NotImplementedError


#: Registered checker classes, in registration order.
CHECKERS: List[Type[Checker]] = []


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to :data:`CHECKERS`."""
    if not getattr(cls, "family", ""):
        raise ValueError(f"checker {cls.__name__} has no family")
    if not getattr(cls, "codes", None):
        raise ValueError(f"checker {cls.__name__} declares no rule codes")
    for code in cls.codes:
        if not code.startswith(cls.family):
            raise ValueError(
                f"checker {cls.__name__}: code {code} outside family {cls.family}")
    CHECKERS.append(cls)
    return cls


def all_rule_codes() -> Dict[str, str]:
    """Every registered rule code mapped to its description, sorted."""
    table: Dict[str, str] = {}
    for cls in CHECKERS:
        table.update(cls.codes)
    return dict(sorted(table.items()))


@dataclass(frozen=True)
class GuardSpec:
    """Lock-discipline contract for one class: which attributes may only be
    touched while holding which lock(s)."""

    locks: Tuple[str, ...]
    attrs: Tuple[str, ...]


def _guard(locks: Iterable[str], attrs: Iterable[str]) -> GuardSpec:
    return GuardSpec(locks=tuple(sorted(locks)), attrs=tuple(sorted(attrs)))


#: Built-in lock contracts for the repo's core shared-state classes.  A class
#: body can declare (or override) its own via a ``_GUARDED_BY`` dict literal
#: mapping attribute name -> lock attribute name.
BUILTIN_GUARDS: Mapping[str, GuardSpec] = {
    "JobQueue": _guard(
        # _ready is a Condition constructed over _lock; entering either
        # acquires the same underlying lock.
        ("_lock", "_ready"),
        ("_jobs", "_pending", "_delayed", "_delay_seq", "_queued", "_stopped"),
    ),
    "ArtifactStore": _guard(
        ("_lock",),
        ("_memory", "_size_estimate", "_hits", "_memory_hits", "_misses",
         "_puts", "_corrupted", "_io_errors", "_io_warned"),
    ),
    "EventBus": _guard(("_lock",), ("_subscribers",)),
    "MetricsRegistry": _guard(("_lock",), ("_metrics",)),
}

@dataclass(frozen=True)
class LintConfig:
    """Scan-wide policy: which module paths are exempt from which families.

    Globs are matched (:func:`fnmatch.fnmatch`) against the *module path* —
    the file path from its ``repro`` package component down, e.g.
    ``repro/obs/bus.py`` — so the allowlists hold no matter where the
    checkout lives or which root the scan started from.
    """

    #: Paths where bare print/stderr output is the job (the CLIs, obs itself).
    obs_output_allowed: Tuple[str, ...] = (
        "repro/obs/*.py", "repro/cli.py", "repro/analysis/lint/cli.py")
    #: Paths allowed to use the unseeded module-level ``random``.
    random_allowed: Tuple[str, ...] = (
        "repro/workloads/*.py", "repro/testing/*.py")
    #: Required metric-name prefix and per-kind suffix rules.
    metric_prefix: str = "repro_"

    def allows(self, globs: Tuple[str, ...], module_path: str) -> bool:
        return any(fnmatch(module_path, pattern) for pattern in globs)


@dataclass
class FileContext:
    """One parsed file plus everything a checker needs to judge it."""

    path: str
    module_path: str
    source: str
    tree: ast.Module
    config: LintConfig

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return at_node(self.path, node, rule, message)


def module_path_for(path: Path) -> str:
    """The path from the last ``repro`` component down (posix), or the file
    name when the file is not under a ``repro`` package (e.g. fixtures)."""
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return path.name
