#!/usr/bin/env python3
"""List the ``src/repro`` functions that no entry point reaches.

Usage::

    python tools/reachability.py

The probe runs every entry point of :data:`ENTRY_SET` (the CLI, the examples,
the service round trip, the smoke tools and the benchmark self-test) in a
subprocess whose ``PYTHONPATH`` starts with a temporary directory holding a
generated ``sitecustomize.py``.  That file installs ``sys.setprofile`` and
``threading.setprofile`` in every Python process the entry starts, forked pool
workers included, and appends one record per code object the first time the
process enters it.  Each process writes its own file, named after its PID, as
it goes, so a worker that leaves through ``os._exit`` loses nothing.  A record
reads ``path:co_firstlineno:qualname`` and is kept only for files under the
probed root.

The report walks the root with :mod:`ast` and prints every function that was
never entered, with its line count.  ``co_firstlineno`` of a decorated
function is the line of its first decorator, so functions are matched on that
line.  A nested function counts once, under its outermost unreached parent.
Functions matching :data:`ALLOWLIST` are left out of the list; every entry
there says why the function stays although the entry set never calls it.

The tool reports and does not gate on the list: it exits 0 whatever it finds,
and 1 only if an entry point itself failed, because a failed entry leaves the
records incomplete.  Stdlib only.
"""

from __future__ import annotations

import ast
import os
import signal
import subprocess
import sys
import tempfile
import time
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: ``path:qualname`` globs (paths relative to ``src/``) of functions that stay
#: although no entry point calls them, each with the reason.  A glob without
#: ``:`` covers every function in the matching files.
ALLOWLIST: Dict[str, str] = {
    # Oracles: the naive implementations the production paths are tested
    # against, and what only they read.
    "repro/logic/reference.py": "oracle: the model checker's naive reference semantics",
    "repro/kbp/reference.py": "oracle: the per-point knowledge-based-program checks",
    "repro/simulation/engine.py": "oracle: the per-run engine the batched builder is pinned to",
    "repro/store/keys.py:token": "oracle: the naive key encoder the fast key path is pinned to",
    "repro/store/keys.py:_*": "oracle: token's per-type encoders and its error path",
    "repro/simulation/batch.py:RunTable.from_runs":
        "oracle: hand-assembled per-run-oracle systems are tabled through it",
    "repro/simulation/batch.py:_identity_table": "oracle: from_runs's interning table",
    "repro/analysis/chains.py:ZeroChain.last_agent":
        "oracle: kbp/reference.py keys 0-chains by their last agent",
    **{f"repro/systems/interpreted.py:InterpretedSystem.{name}":
       "oracle: the reference checkers read the system point by point through it"
       for name in ("run", "local_state", "nonfaulty", "equivalence_classes",
                    "indistinguishable")},
    # Test support.
    "repro/testing/*": "test support: fault-injection doubles imported by the test suite",
    "repro/protocols/baselines.py:EagerOneProtocol.*":
        "test subject: the Def 6.2 safety scan must reject it",
    "repro/obs/metrics.py:*._reset": "test support: MetricsRegistry.reset_for_tests",
    "repro/obs/metrics.py:MetricsRegistry.reset_for_tests":
        "test support: a clean registry per test",
    # Named by perfbench/, which wraps library entry points by name.
    "repro/api/executors.py:ParallelExecutor.*": "benchmark: models-jobs2 runs on it",
    "repro/api/executors.py:_*": "benchmark: ParallelExecutor's pool helpers",
    "repro/api/scans.py": "benchmark: models-jobs2's sharded safety scan",
    "repro/logic/words.py:blocks": "benchmark: api/scans.py shards runs with it",
    "repro/store/caching.py:*_key": "benchmark: perfbench/layers.py wraps the key functions",
    # Fault, error and configuration-gated paths.
    "repro/service/jobs.py:JobQueue.retry_or_fail": "fault path: a retryable job failure",
    "repro/service/jobs.py:JobQueue.fail": "fault path: a job that raises",
    "repro/service/jobs.py:JobQueue._fail_locked": "fault path: a job that raises",
    "repro/service/jobs.py:JobQueue.cancel": "fault path: DELETE /jobs/<id>",
    "repro/service/jobs.py:JobQueue.*mark_cancelled*": "fault path: a cancelled job stops",
    "repro/service/client.py:ServiceClient.cancel": "fault path: DELETE /jobs/<id>",
    "repro/service/client.py:ServiceClient._decode_error": "fault path: an HTTP error reply",
    "repro/service/client.py:_retry_after_seconds": "fault path: a 503's Retry-After",
    "repro/service/server.py:_raise_interrupt": "fault path: SIGTERM stops the server",
    "repro/simulation/trace.py:undecided_error":
        "fault path: a protocol still undecided at the round cap",
    "repro/store/store.py:ArtifactStore.evict_to": "config path: a store size budget",
    "repro/store/store.py:ArtifactStore._backend_error": "fault path: a failing store backend",
    "repro/store/store.py:default_cache_dir": "config path: a store without --cache-dir",
    "repro/store/store.py:_shared_store": "config path: REPRO_EBA_CACHE=1",
    "repro/obs/logs.py:warn_once": "fault path: one-shot warnings on degraded paths",
    "repro/simulation/batch.py:*._slot_scenario":
        "config path: scenarios outside the enumerated pattern table",
    "repro/cli.py:_report_resume": "config path: a sweep resumed from a partial store",
    "repro/cli.py:_make_progress_printer.<locals>.on_progress":
        "config path: progress lines of a long-running command",
    "repro/analysis/lint/runner.py:render_json": "config path: repro-eba lint --json",
    "repro/analysis/lint/findings.py:Finding.*": "lint: renders a finding; the clean tree has none",
    "repro/analysis/lint/registry.py:all_rule_codes": "config path: repro-eba lint --list-rules",
    "repro/analysis/lint/runner.py:iter_rule_lines": "config path: repro-eba lint --list-rules",
    "repro/analysis/lint/cli.py:main": "entry: tools/repro_lint.py, run by CI's lint job",
    "repro/analysis/lint/checkers/obs.py:_warn_category":
        "lint rule path: warnings.warn calls, which the tree does not make",
    "repro/analysis/lint/checkers/obs.py:_is_deprecation":
        "lint rule path: warnings.warn calls, which the tree does not make",
    # Interfaces and the formula language.
    "*:*.__*__": "language: data-model hooks Python calls implicitly",
    "repro/failures/models.py:FailureModel.*": "interface: the failure-model protocol",
    "repro/failures/models.py:EdgeOmissionModel.slots": "interface: overridden by SO/RO/GO",
    "repro/failures/models.py:CrashModel.*": "interface: a registered failure model",
    "repro/failures/models.py:FailureFreeModel.*": "interface: a registered failure model",
    "repro/exchange/base.py:InformationExchange.*": "interface: abstract base method",
    "repro/protocols/base.py:ActionProtocol.*": "interface: abstract base method",
    "repro/store/backends.py:StoreBackend.*": "interface: abstract base method",
    "repro/analysis/lint/registry.py:Checker.check": "interface: abstract base method",
    "repro/store/backends.py:MemoryBackend.*": "interface: StoreBackend on the in-memory backend",
    "repro/kbp/implementation.py:TableProtocol.*":
        "interface: the ActionProtocol synthesised from a knowledge-based program",
    "repro/analysis/lint/checkers/locks.py:_MethodScanner.visit_*":
        "language: AST visitors for syntax the tree does not use",
    "repro/logic/semantics.py:ModelChecker.*": "language: temporal-operator evaluation",
    "repro/logic/semantics.py:satisfying_points": "language: one-call formula evaluation",
    "repro/logic/semantics.py:holds": "language: one-call formula evaluation",
    "repro/logic/semantics.py:valid": "language: one-call formula evaluation",
    "repro/logic/formula.py:undecided": "language: the formula for an undecided agent",
    "repro/logic/words.py:full_words": "language: the full point set in canonical word form",
    # Public queries of the library's value types.
    **{f"repro/failures/pattern.py:FailurePattern.{name}":
       "API: a failure pattern's Section 3 queries; CrashModel and the tests read them"
       for name in ("sort_key", "num_faulty", "all_blocked", "delivered",
                    "blocked_receivers", "max_round", "from_receive_blocked")},
    **{f"repro/simulation/trace.py:RunTrace.{name}": "API: a trace's per-agent queries"
       for name in ("state_of", "action_of", "decided_agents", "all_decided",
                    "all_nonfaulty_decided")},
    "repro/simulation/batch.py:RunTable.trace": "API: one run of a table as a RunTrace",
    "repro/analysis/dominance.py:DominanceResult.second_strictly_dominates":
        "API: the mirror of first_strictly_dominates",
    "repro/analysis/optimality.py:OptimalityProbeReport.consistent_with_optimality":
        "API: the optimality probe's verdict",
    "repro/kbp/programs.py:KnowledgeBasedProgram.n": "API: the program's agent count",
    # Documented or public observability API.
    "repro/api/specs.py:SweepSpec.missing_tasks":
        "documented: the resume API in docs/architecture.md",
    "repro/obs/trace.py:event": "observability API: instant trace events",
    "repro/obs/trace.py:complete": "observability API: spans with a known duration",
    "repro/obs/trace.py:traced": "observability API: the span decorator",
    "repro/obs/trace.py:validate_trace": "observability API: schema check of a whole trace",
    "repro/obs/metrics.py:Gauge.*": "observability API: gauges",
    "repro/obs/metrics.py:Histogram.count": "observability API: histogram readers",
    "repro/obs/metrics.py:Histogram.sum": "observability API: histogram readers",
    "repro/obs/metrics.py:MetricsRegistry.get": "observability API: a metric by name",
    "repro/obs/bus.py:ProgressReporter.*": "observability API: progress events of long loops",
}

#: The exit codes a step accepts by default.  ``naive0``/``delayed`` runs
#: violate EBA by design and ``cache missing`` exits 1 while artifacts are
#: absent, so those steps also accept 1.
OK = frozenset({0})

_SITECUSTOMIZE = '''\
"""Generated by tools/reachability.py: record every code object entered."""
import os
import sys
import threading

_ROOT = os.environ.get("REPRO_REACH_ROOT")
_OUT = os.environ.get("REPRO_REACH_RECORDS")
if _ROOT and _OUT:
    _seen = {}
    _under_root = {}
    _fd = [None]

    def _reset():
        _fd[0] = None

    def _write(line):
        if _fd[0] is None:
            name = os.path.join(_OUT, "%d.txt" % os.getpid())
            _fd[0] = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.write(_fd[0], line.encode("utf-8", "replace"))

    def _profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if id(code) in _seen:
            return
        _seen[id(code)] = code
        filename = code.co_filename
        path = _under_root.get(filename)
        if path is None:
            path = os.path.realpath(filename)
            path = path if path.startswith(_ROOT) else ""
            _under_root[filename] = path
        if path:
            name = getattr(code, "co_qualname", code.co_name)
            _write("%s:%d:%s\\n" % (path, code.co_firstlineno, name))

    os.register_at_fork(after_in_child=_reset)
    sys.setprofile(_profile)
    threading.setprofile(_profile)
'''


# --------------------------------------------------------------------- probing

def write_hook(directory: Path) -> Path:
    """Write the recording ``sitecustomize.py`` into ``directory``."""
    path = directory / "sitecustomize.py"
    path.write_text(_SITECUSTOMIZE, encoding="utf-8")
    return path


def probe_env(hook_dir: Path, records: Path, root: Path,
              pythonpath: Sequence[Path] = ()) -> Dict[str, str]:
    """The environment that runs a command under the recording hook."""
    env = dict(os.environ)
    parts = [str(hook_dir), *map(str, pythonpath)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env.update(PYTHONPATH=os.pathsep.join(parts),
               REPRO_REACH_ROOT=os.path.realpath(root) + os.sep,
               REPRO_REACH_RECORDS=str(records))
    return env


def read_records(records: Path) -> Set[Tuple[str, int]]:
    """``(realpath, co_firstlineno)`` of every code object any process entered."""
    entered = set()
    for path in sorted(records.glob("*.txt")):
        for line in path.read_text(encoding="utf-8").splitlines():
            file, first, _ = line.rsplit(":", 2)
            entered.add((file, int(first)))
    return entered


class Context(NamedTuple):
    """What an entry step runs with."""
    env: Dict[str, str]
    work: Path


Step = Callable[[Context], None]


class EntryFailed(RuntimeError):
    pass


def _python(*args: str) -> List[str]:
    return [sys.executable, *args]


def _cli(*args: str) -> List[str]:
    return _python("-m", "repro.cli", *args)


def _check(command: Sequence[str], ctx: Context, allowed: frozenset = OK,
           timeout: float = 900) -> None:
    done = subprocess.run(list(command), cwd=ROOT, env=ctx.env, capture_output=True,
                          text=True, timeout=timeout)
    if done.returncode not in allowed:
        tail = "\n".join((done.stderr or done.stdout).splitlines()[-15:])
        raise EntryFailed(f"exit {done.returncode}\n{tail}")


def command(*argv: str, allowed: frozenset = OK) -> Step:
    """A step that runs ``argv`` (``{work}`` names the scratch directory)."""
    def step(ctx: Context) -> None:
        _check([arg.format(work=ctx.work) for arg in argv], ctx, allowed)
    return step


def serve_session(ctx: Context) -> None:
    """A journaled ``serve``: submit run/sweep/theorem, SIGINT, restart, again."""
    journal = ctx.work / "jobs.journal"
    submits = (
        ("run", "--protocol", "opt", "--scenario", "example71", "--n", "4", "--t", "1"),
        ("sweep", "--protocols", "min,basic,opt", "--n", "4", "--t", "1", "--count", "4"),
        ("theorem", "--theorem", "6.5", "--n", "3", "--t", "1"),
    )
    for _ in range(2):
        with open(ctx.work / "serve.log", "a", encoding="utf-8") as log:
            server = subprocess.Popen(
                _cli("serve", "--port", "0", "--workers", "2", "--journal", str(journal),
                     "--cache-dir", str(ctx.work / "served")),
                cwd=ROOT, env=ctx.env, stdout=subprocess.PIPE, stderr=log, text=True)
        try:
            banner = server.stdout.readline()
            if " on " not in banner:
                raise EntryFailed(f"no server banner: {banner!r}")
            url = banner.split(" on ", 1)[1].split()[0]
            for submit in submits:
                _check(_cli("submit", *submit, "--wait", "--url", url), ctx, timeout=300)
            server.send_signal(signal.SIGINT)
            server.communicate(timeout=60)
            if server.returncode != 0:
                raise EntryFailed(f"serve exited {server.returncode} on SIGINT")
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()


_PROTOCOLS = ("min", "basic", "opt", "naive0", "delayed")
_SCENARIOS = ("failure-free", "example71", "intro", "hidden-chain", "random")

#: Every entry point, as ``(label, step)``; see docs/static-analysis.md.
ENTRY_SET: List[Tuple[str, Step]] = [
    *((f"experiment e{i}", command(*_cli("experiment", f"e{i}"))) for i in range(1, 13)),
    *((f"run {p} {s}", command(*_cli("run", "--protocol", p, "--scenario", s),
                               allowed=frozenset({0, 1})))
      for p in _PROTOCOLS for s in _SCENARIOS),
    ("run custom --trace",
     command(*_cli("run", "--protocol", "opt", "--scenario", "custom", "--n", "4",
                   "--t", "1", "--preferences", "0,1,1,1", "--silent", "0",
                   "--show-rounds", "--trace", "{work}/run.jsonl", "--metrics"))),
    ("trace_report", command(*_python("tools/trace_report.py", "{work}/run.jsonl",
                                      "--waterfall"))),
    ("failure-models", command(*_cli("failure-models"))),
    ("list", command(*_cli("list"))),
    ("obs", command(*_cli("obs"))),
    ("lint", command(*_cli("lint", "src/repro"))),
    ("cache missing", command(*_cli("cache", "missing", "--cache-dir", "{work}/cache"),
                              allowed=frozenset({0, 1}))),
    ("cache warm --safety", command(*_cli("cache", "warm", "--safety",
                                          "--cache-dir", "{work}/cache"))),
    ("cache stats", command(*_cli("cache", "stats", "--cache-dir", "{work}/cache"))),
    ("cache clear", command(*_cli("cache", "clear", "--cache-dir", "{work}/cache"))),
    *((f"examples/{name}", command(*_python(f"examples/{name}")))
      for name in ("quickstart.py", "failure_injection.py",
                   "knowledge_model_checking.py", "compare_information_exchange.py")),
    ("service_smoke", command(*_python("tools/service_smoke.py"))),
    ("serve + submit + restart", serve_session),
    ("perfbench selftest", command(*_python("perfbench/selftest.py"))),
]


def probe(steps: Iterable[Tuple[str, Step]], records: Path, root: Path,
          pythonpath: Sequence[Path] = (), log: Callable[[str], None] = print) -> bool:
    """Run every step under the recording hook; False if any step failed."""
    ok = True
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        hook_dir = Path(tmp) / "hook"
        hook_dir.mkdir()
        write_hook(hook_dir)
        env = probe_env(hook_dir, records, root, pythonpath)
        env.pop("REPRO_EBA_CACHE", None)
        env["REPRO_EBA_CACHE_DIR"] = str(Path(tmp) / "default-cache")
        for label, step in steps:
            work = Path(tmp) / "work"
            work.mkdir(exist_ok=True)
            start = time.perf_counter()
            try:
                step(Context(env, work))
                log(f"ok    {time.perf_counter() - start:6.1f}s  {label}")
            except (EntryFailed, OSError, subprocess.SubprocessError) as error:
                ok = False
                log(f"FAIL  {time.perf_counter() - start:6.1f}s  {label}: {error}")
    return ok


# ------------------------------------------------------------------- reporting

class Function(NamedTuple):
    """One function the report names: where it starts and how long it is."""
    path: str           # relative to the root's parent, e.g. ``repro/cli.py``
    line: int           # first line: the first decorator's, if any
    qualname: str
    lines: int

    @property
    def location(self) -> str:
        return f"{self.path}:{self.qualname}"


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _walk(node: ast.AST, prefix: str, path: str, real: str,
          entered: Set[Tuple[str, int]]) -> Iterator[Tuple[Function, bool]]:
    """Yield ``(function, reached)`` for each function, not below unreached ones."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            qualname = prefix + child.name
            reached = (real, first) in entered
            yield Function(path, first, qualname, child.end_lineno - first + 1), reached
            if reached:
                yield from _walk(child, qualname + ".<locals>.", path, real, entered)
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, prefix + child.name + ".", path, real, entered)
        elif not isinstance(child, ast.Lambda):
            yield from _walk(child, prefix, path, real, entered)


def functions(root: Path, entered: Set[Tuple[str, int]]) -> List[Tuple[Function, bool]]:
    """Every function under ``root`` that is reached or outermost unreached."""
    found = []
    for file in sorted(root.rglob("*.py")):
        tree = ast.parse(file.read_text(encoding="utf-8"), str(file))
        rel = file.relative_to(root.parent).as_posix()
        found.extend(_walk(tree, "", rel, os.path.realpath(file), entered))
    return found


def _matches(function: Function, pattern: str) -> bool:
    return fnmatchcase(function.location, pattern if ":" in pattern else pattern + ":*")


def allowed(function: Function, allowlist: Dict[str, str]) -> str:
    """The reason ``function`` is allowlisted, or ``""``."""
    return next((reason for pattern, reason in allowlist.items()
                 if _matches(function, pattern)), "")


def report(root: Path, entered: Set[Tuple[str, int]],
           allowlist: Dict[str, str]) -> Tuple[List[Function], List[str]]:
    """The unreached functions outside the allowlist, and the report's lines."""
    found = functions(root, entered)
    unreached = [function for function, reached in found if not reached]
    listed = [function for function in unreached if not allowed(function, allowlist)]
    total = sum(function.lines for function, _ in found
                if "<locals>" not in function.qualname)
    unreached_lines = sum(function.lines for function in unreached)
    listed_lines = sum(function.lines for function in listed)
    lines = [f"unreached outside the allowlist: {len(listed)} functions, {listed_lines} lines"]
    lines += [f"  {f.path}:{f.line}  {f.qualname}  ({f.lines} lines)" for f in listed]
    stale = [pattern for pattern in allowlist
             if not any(_matches(function, pattern) for function, _ in found)]
    if stale:
        lines.append("allowlist entries that match no function: " + ", ".join(stale))
    lines.append(f"function lines under {root.name}: {total}, unreached {unreached_lines} "
                 f"({unreached_lines - listed_lines} allowlisted)")
    return listed, lines


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-reach-records-") as records:
        ok = probe(ENTRY_SET, Path(records), PACKAGE, [ROOT / "src"])
        _, lines = report(PACKAGE, read_records(Path(records)), ALLOWLIST)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
