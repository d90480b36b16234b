"""API: surface-hygiene rules.

**API002** — an executor-accepting function that calls another
executor-accepting function without forwarding its ``executor``.  The callee
set is discovered project-wide in a pre-pass (every scanned ``def`` with an
``executor`` parameter), so a dropped argument silently serialising a
parallel pipeline is caught wherever it happens.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional, Set, Tuple

from ..findings import Finding
from ..registry import Checker, FileContext, register

__all__ = ["ApiSurfaceChecker", "index_executor_functions"]


def has_executor_param(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> bool:
    args = func.args
    every = (args.posonlyargs + args.args + args.kwonlyargs)
    return any(arg.arg == "executor" for arg in every)


def index_executor_functions(tree: ast.Module) -> Set[str]:
    """Names of functions/methods in ``tree`` accepting an ``executor``."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and has_executor_param(node):
            names.add(node.name)
    return names


def _call_name(node: ast.Call) -> Optional[Tuple[str, Optional[str]]]:
    """``(base, attr)`` for ``base.attr(...)`` or ``(name, None)``."""
    func = node.func
    if isinstance(func, ast.Name):
        return (func.id, None)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return (func.value.id, func.attr)
    return None


def _is_executor_value(expr: ast.expr) -> bool:
    """Whether ``expr`` syntactically carries an executor (``executor``,
    ``self.executor``, ``args.executor``, ...)."""
    if isinstance(expr, ast.Name):
        return expr.id == "executor"
    if isinstance(expr, ast.Attribute):
        return expr.attr == "executor"
    return False


def _passes_executor(node: ast.Call) -> bool:
    if any(kw.arg == "executor" or kw.arg is None  # **kwargs may carry it
           for kw in node.keywords):
        return True
    # Positional forwarding counts too: resolve_executor(executor), ...
    return any(_is_executor_value(arg) for arg in node.args) or \
        any(isinstance(arg, ast.Starred) for arg in node.args)


def _import_aliases(tree: ast.Module) -> Set[str]:
    """Local names bound by imports — the only attribute-call bases (besides
    ``self``/``cls``) API002 trusts to resolve to project functions."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def _local_defs_without_executor(tree: ast.Module) -> Set[str]:
    """Function names defined in this file where *no* definition takes an
    executor — a plain-name call to one of these resolves locally, so a
    same-named executor-accepting function elsewhere is irrelevant."""
    with_exec: Set[str] = set()
    without: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            (with_exec if has_executor_param(node) else without).add(node.name)
    return without - with_exec


@register
class ApiSurfaceChecker(Checker):
    family = "API"
    codes = {
        "API002": ("executor-accepting function drops the executor when "
                   "calling an executor-accepting callee"),
    }

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        yield from self._check_executor_threading(ctx)

    def _check_executor_threading(self, ctx: FileContext) -> Iterator[Finding]:
        callees = set(ctx.project.executor_functions)
        callees -= _local_defs_without_executor(ctx.tree)
        if not callees:
            return
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not has_executor_param(node):
                continue
            yield from self._scan_function(ctx, node, callees, aliases)

    def _scan_function(self, ctx: FileContext,
                       func: "ast.FunctionDef | ast.AsyncFunctionDef",
                       callees: Set[str], aliases: Set[str]
                       ) -> Iterator[Finding]:
        # Manual traversal so nested defs/lambdas are skipped — they are
        # scanned on their own when they accept an executor, and a closure
        # that deliberately binds no executor is not this function's bug.
        stack: "list[ast.AST]" = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call):
                continue
            named = _call_name(node)
            if named is None:
                continue
            base, attr = named
            callee = attr if attr is not None else base
            if attr is not None and base not in aliases \
                    and base not in {"self", "cls"}:
                # x.measure(...) on an arbitrary object is a method call that
                # only shares a name with the indexed function — skip it.
                continue
            if callee in callees and not _passes_executor(node):
                yield ctx.finding(
                    node, "API002",
                    f"{func.name}(..., executor=...) calls {callee}() "
                    "without forwarding executor=; the parallel plan is "
                    "silently dropped")
