"""API: surface-hygiene rules.

**API001** — calls to deprecated shims.  Deprecated symbols are listed per
defining module (:data:`~..registry.DEPRECATED_SYMBOLS`) and call sites are
resolved through the file's imports, so ``simulate`` imported from
``repro.simulation.engine`` (the real engine) is never confused with the
legacy ``repro.simulation.runner.simulate`` shim.

**API002** — an executor-accepting function that calls another
executor-accepting function without forwarding its ``executor``.  The callee
set is discovered project-wide in a pre-pass (every scanned ``def`` with an
``executor`` parameter), so a dropped argument silently serialising a
parallel pipeline is caught wherever it happens.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, Optional, Set, Tuple

from ..findings import Finding
from ..registry import Checker, DEPRECATED_SYMBOLS, FileContext, register

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


def _absolute_module(ctx: FileContext, node: ast.ImportFrom) -> Optional[str]:
    """Resolve a (possibly relative) ``from ... import`` to a dotted module
    path using the file's location under the ``repro`` package."""
    if node.level == 0:
        return node.module
    parts = ctx.module_path.split("/")
    if not parts or parts[0] != "repro":
        return None
    package = parts[:-1]  # drop the file name
    if parts[-1] == "__init__.py":
        package = parts[:-1]
    hops = node.level - 1
    if hops > len(package):
        return None
    base = package[:len(package) - hops] if hops else package
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


def _deprecated_bindings(ctx: FileContext) -> Dict[str, str]:
    """Local name -> "module.symbol" for imports of deprecated symbols."""
    bindings: Dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom):
            module = _absolute_module(ctx, node)
            if module is None:
                continue
            deprecated = DEPRECATED_SYMBOLS.get(module, ())
            for alias in node.names:
                if alias.name in deprecated:
                    bindings[alias.asname or alias.name] = \
                        f"{module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in DEPRECATED_SYMBOLS:
                    bindings[(alias.asname or alias.name).split(".")[0]] = \
                        alias.name
    return bindings


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
        "API001": "call to a deprecated shim outside the shim modules",
        "API002": ("executor-accepting function drops the executor when "
                   "calling an executor-accepting callee"),
    }

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        yield from self._check_deprecated(ctx)
        yield from self._check_executor_threading(ctx)

    def _check_deprecated(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.config.allows(ctx.config.deprecated_allowed, ctx.module_path):
            return
        bindings = _deprecated_bindings(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            named = _call_name(node)
            if named is not None:
                base, attr = named
                if attr is None and base in bindings:
                    yield ctx.finding(
                        node, "API001",
                        f"call to deprecated shim {bindings[base]}; use the "
                        "RunSpec/Sweep builders")
                elif attr is not None:
                    target = bindings.get(base)
                    module = target if target in DEPRECATED_SYMBOLS else None
                    if module is None and base in DEPRECATED_SYMBOLS:
                        module = base
                    if module and attr in DEPRECATED_SYMBOLS[module]:
                        yield ctx.finding(
                            node, "API001",
                            f"call to deprecated shim {module}.{attr}; use "
                            "the RunSpec/Sweep builders")

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
