"""Command-line interface for the reproduction.

Two entry points matter in practice:

* ``repro-eba run`` — simulate a single scenario with one of the paper's
  protocols and print the round-by-round trace, decision timeline, and the EBA
  specification check;
* ``repro-eba experiment <id>`` — regenerate one of the paper's quantitative
  results (E1..E12) and print its table;
* ``repro-eba failure-models`` — compare the protocols (and the Theorem
  6.5/6.6 implementation checks) across the registered failure models
  (``SO(t)`` / ``RO(t)`` / ``GO(t)``);
* ``repro-eba cache`` — inspect (``stats``, optionally ``--json``; ``missing``
  for the resumable-state view), empty (``clear``), or pre-build (``warm``)
  the content-addressed artifact store that ``--cache`` / ``--cache-dir``
  switch on for the commands above;
* ``repro-eba serve`` / ``repro-eba submit`` — the job-server subsystem
  (:mod:`repro.service`): a long-running HTTP job API where concurrent
  identical submissions coalesce into one computation by content key, and a
  thin polling client.

Examples
--------
::

    repro-eba run --protocol opt --scenario example71 --n 10 --t 5
    repro-eba run --protocol min --n 5 --t 1 --preferences 0,1,1,1,1 --show-rounds
    repro-eba experiment e3 --n 12 --t 6
    repro-eba experiment e4 --n 8 --t 3 --parallel --jobs 4
    repro-eba experiment e7 --n 4 --t 1 --cache
    repro-eba cache warm --n 4 --t 1 && repro-eba cache stats --json
    repro-eba cache missing --n 4 --t 1
    repro-eba failure-models --model general-omission
    repro-eba failure-models --model receive-omission --skip-theorems
    repro-eba serve --port 8322 --workers 2 --cache
    repro-eba submit theorem --theorem 6.5 --n 3 --t 1 --wait
    repro-eba submit sweep --protocols min,basic,opt --n 4 --t 1 --count 8
    repro-eba list

Both commands execute through the :mod:`repro.api` orchestration layer;
``--parallel`` switches the sweep-shaped experiments to the process-pool
backend; system construction (e7, e11, e12) and the Definition 6.2 safety
scan behind e11 always run in-process, because shipping them to workers
costs more than it saves.  ``--jobs N`` implies
``--parallel`` with ``N`` workers (``repro-eba experiment e4 --jobs 8`` runs on eight worker
processes; it used to fall back to a serial run silently).  ``--cache`` (optionally with
``--cache-dir PATH``) serves repeated runs, sweeps, system builds, and theorem
reports from the content-addressed artifact store (:mod:`repro.store`); the
two flags compose — cache misses still fan out over the process pool.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .api import Executor, RunSpec, executor_from_flags
from .core.errors import ReproError
from .experiments import (
    agreement_violation,
    crash_comparison,
    decision_rounds,
    dominance_study,
    example_7_1,
    failure_model_comparison,
    fip_gap,
    implementation_check,
    message_complexity,
    optimality_probe,
    safety_check,
    termination_bound,
)
from .failures.models import available_models
from .failures.pattern import FailurePattern
from .obs import trace as obs_trace
from .obs.bus import BUS
from .obs.logs import configure_logging
from .obs.metrics import REGISTRY, render_table
from .protocols.base import ActionProtocol
from .reporting.trace_view import render_decision_timeline, render_run
from .service.wire import PROTOCOL_FACTORIES, THEOREMS
from .spec.eba import check_eba
from .store import ArtifactStore, default_cache_dir, default_store
from .workloads import scenarios as scenario_lib

#: Protocol name -> constructor taking the failure bound t.  This *is* the
#: service wire format's protocol namespace (:mod:`repro.service.wire`), so a
#: name accepted by ``repro-eba run`` is accepted by ``repro-eba submit`` and
#: by any remote client, unchanged.
PROTOCOLS: Dict[str, Callable[[int], ActionProtocol]] = PROTOCOL_FACTORIES

#: Experiment id -> (description, report callable taking (n, t, executor, store)).
EXPERIMENTS: Dict[str, tuple] = {
    "e1": ("Proposition 8.1 — bits sent per failure-free run",
           lambda n, t, executor, store: message_complexity.report(
               settings=((n, t),), executor=executor, store=store)),
    "e2": ("Proposition 8.2 — failure-free decision rounds",
           lambda n, t, executor, store: decision_rounds.report(
               settings=((n, t),), executor=executor, store=store)),
    "e3": ("Example 7.1 — full-information advantage under silent failures",
           lambda n, t, executor, store: example_7_1.report(
               n=n, t=t, executor=executor, store=store)),
    "e4": ("Corollaries 6.7 / 7.8 — dominance over corresponding runs",
           lambda n, t, executor, store: dominance_study.report(
               n=n, t=t, executor=executor, store=store)),
    "e5": ("Proposition 6.1 — termination by round t + 2",
           lambda n, t, executor, store: termination_bound.report(
               n=n, t=t, executor=executor, store=store)),
    "e6": ("Introduction — the hear-about-0 counterexample",
           lambda n, t, executor, store: agreement_violation.report(
               sizes=((n, t),), executor=executor, store=store)),
    "e7": ("Theorems 6.5 / 6.6 — implementation of the knowledge-based program P0",
           lambda n, t, executor, store: implementation_check.report(n=n, t=t, store=store)),
    "e8": ("Section 8 — decision-round gap between limited exchanges and the FIP",
           lambda n, t, executor, store: fip_gap.report(
               n=n, t=t, executor=executor, store=store)),
    "e9": ("Crash failures vs sending omissions (0-bias ablation)",
           lambda n, t, executor, store: crash_comparison.report(
               n=n, t=t, executor=executor, store=store)),
    "e10": ("Optimality probe — one-step deviations of P_min / P_basic",
            lambda n, t, executor, store: optimality_probe.report(n=n, t=t)),
    "e11": ("Proposition 6.4 — the Definition 6.2 safety condition",
            lambda n, t, executor, store: safety_check.report(n=n, t=t, store=store)),
    "e12": ("Failure-model comparison — SO vs RO vs GO (see also 'failure-models')",
            lambda n, t, executor, store: failure_model_comparison.report(
                n=n, t=t, executor=executor, store=store)),
}


#: ``experiment``'s default ``(n, t)`` where it is not (6, 2): the exhaustive
#: E7, E10 and E11 default to their own ``report()`` size.
EXPERIMENT_SIZES: Dict[str, Tuple[int, int]] = {"e7": (3, 1), "e10": (3, 1), "e11": (3, 1)}


def _make_executor(args: argparse.Namespace) -> Optional[Executor]:
    """Build the execution backend requested on the command line."""
    return executor_from_flags(parallel=getattr(args, "parallel", False),
                               jobs=getattr(args, "jobs", None))


def _make_store(args: argparse.Namespace) -> Optional[ArtifactStore]:
    """Open the artifact store requested on the command line (``None`` = off).

    ``--cache`` switches caching on at the default location
    (``$REPRO_EBA_CACHE_DIR`` or ``~/.cache/repro-eba``); ``--cache-dir PATH``
    switches it on at ``PATH``.
    """
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is not None:
        return default_store(cache_dir)
    if getattr(args, "cache", False):
        return default_store()
    return None


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--parallel", action="store_true",
                        help="execute sweep runs on worker processes "
                             "(repro.api.ParallelExecutor); systems are always "
                             "built, and safety scans run, in-process")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes; implies --parallel (with --parallel "
                             "alone: all cores)")
    parser.add_argument("--cache", action="store_true",
                        help="serve repeated work from the content-addressed artifact "
                             "store (repro.store) at its default location")
    parser.add_argument("--cache-dir", type=str, default=None, metavar="PATH",
                        help="like --cache, but store artifacts under PATH")
    parser.add_argument("--trace", type=str, default=None, metavar="FILE",
                        help="record a span trace of the command to FILE "
                             "(JSONL; inspect with tools/trace_report.py)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the process metrics table to stderr when "
                             "the command finishes")


def _parse_preferences(text: str, n: int) -> List[int]:
    """Parse a comma-separated preference vector and validate its length."""
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise SystemExit(f"could not parse preferences {text!r}: {exc}")
    if len(values) != n:
        raise SystemExit(f"expected {n} preferences, got {len(values)}")
    return values


def _build_scenario(args: argparse.Namespace) -> tuple:
    """Build the (preferences, pattern) pair from the ``run`` arguments."""
    n, t = args.n, args.t
    if args.scenario == "failure-free":
        preferences = _parse_preferences(args.preferences, n) if args.preferences else [1] * n
        return preferences, FailurePattern.failure_free(n)
    if args.scenario == "example71":
        return scenario_lib.example_7_1(n=n, t=t)
    if args.scenario == "intro":
        return scenario_lib.intro_counterexample(n=n, t=t)
    if args.scenario == "hidden-chain":
        return scenario_lib.hidden_chain_scenario(n, chain_length=min(t, n - 1))
    if args.scenario == "random":
        scenarios = scenario_lib.random_scenarios(n, t, count=1, seed=args.seed)
        return scenarios[0]
    # custom: preferences required, optional silent faulty agents
    preferences = _parse_preferences(args.preferences, n) if args.preferences else [1] * n
    if args.silent:
        silent = [int(part) for part in args.silent.split(",") if part != ""]
        pattern = FailurePattern.silent(n, faulty=silent, horizon=t + 3)
    else:
        pattern = FailurePattern.failure_free(n)
    return preferences, pattern


def _cmd_run(args: argparse.Namespace) -> int:
    protocol = PROTOCOLS[args.protocol](args.t)
    preferences, pattern = _build_scenario(args)
    spec = RunSpec(protocol=protocol, n=args.n, preferences=tuple(preferences),
                   pattern=pattern)
    with _obs_flags(args):
        trace = spec.run(_make_executor(args), store=_make_store(args))
    if args.show_rounds:
        print(render_run(trace))
    else:
        print(f"run of {protocol.name}, n={args.n}, t={args.t}")
        print(f"preferences : {list(preferences)}")
        print(f"adversary   : {pattern.describe()}")
        print()
        print(render_decision_timeline(trace))
    print()
    report = check_eba(trace, deadline=args.t + 2)
    if report.ok:
        print(f"EBA specification: OK (all nonfaulty decide by round {args.t + 2})")
        return 0
    print("EBA specification violated:")
    for violation in report.violations():
        print(f"  - {violation}")
    return 1


def _report_resume(event: dict) -> None:
    """The sweep-resume notice ``--cache`` surfaces (subscribed per command)."""
    remaining, total = event["remaining"], event["total"]
    done = total - remaining
    print(f"cache: resuming {remaining} of {total} runs "
          f"({done} already cached)", file=sys.stderr)


class _resume_reporting:
    """Context manager: surface partial-sweep resumes while a command runs.

    Subscribed to the observer bus's ``sweep.resume`` events only when the
    command actually configured a store — the library itself never prints —
    and always unsubscribed on the way out so embedding callers (tests, the
    service) are unaffected.
    """

    def __init__(self, store: Optional[ArtifactStore]) -> None:
        self._active = store is not None

    def __enter__(self) -> "_resume_reporting":
        if self._active:
            BUS.subscribe("sweep.resume", _report_resume)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._active:
            BUS.unsubscribe("sweep.resume", _report_resume)


class _obs_flags:
    """Context manager: honour ``--trace FILE`` / ``--metrics`` for one command.

    Tracing is enabled for exactly the command's duration (and always disabled
    on the way out, even on error); the metrics table renders to stderr last,
    so it reflects everything the command did.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self._trace_path = getattr(args, "trace", None)
        self._metrics = getattr(args, "metrics", False)

    def __enter__(self) -> "_obs_flags":
        if self._trace_path:
            obs_trace.enable(self._trace_path)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._trace_path:
            obs_trace.disable()
        if self._metrics:
            print(render_table(REGISTRY.snapshot()), file=sys.stderr)


def _cmd_experiment(args: argparse.Namespace) -> int:
    key = args.id.lower()
    if key not in EXPERIMENTS:
        print(f"unknown experiment {args.id!r}; use 'repro-eba list'", file=sys.stderr)
        return 2
    _description, runner = EXPERIMENTS[key]
    default_n, default_t = EXPERIMENT_SIZES.get(key, (6, 2))
    n = default_n if args.n is None else args.n
    t = default_t if args.t is None else args.t
    store = _make_store(args)
    with _obs_flags(args), _resume_reporting(store):
        print(runner(n, t, _make_executor(args), store))
    return 0


def _cmd_failure_models(args: argparse.Namespace) -> int:
    if args.model == "all":
        models = list(failure_model_comparison.DEFAULT_MODELS)
    else:
        # Always keep the paper's SO(t) baseline in the comparison.
        models = ["sending-omission"]
        if args.model not in models:
            models.append(args.model)
    store = _make_store(args)
    with _obs_flags(args), _resume_reporting(store):
        print(failure_model_comparison.report(
            n=args.n,
            t=args.t,
            models=models,
            count=args.count,
            seed=args.seed,
            include_theorems=not args.skip_theorems,
            executor=_make_executor(args),
            store=store,
        ))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """The ``cache`` subcommand: inspect, empty, or pre-build the artifact store."""
    location = args.cache_dir if args.cache_dir is not None else default_cache_dir()
    store = default_store(args.cache_dir)
    if args.cache_command == "stats":
        if args.json:
            payload = {"location": str(location), **store.stats().as_dict()}
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(f"artifact store at {location}")
        print(store.stats().describe())
        return 0
    if args.cache_command == "missing":
        return _cache_missing(args, store, location)
    if args.cache_command == "clear":
        deleted = store.clear()
        print(f"artifact store at {location}: deleted {deleted} entr"
              f"{'y' if deleted == 1 else 'ies'}")
        return 0
    # warm: pre-build the expensive model-checking artifacts for (n, t) so the
    # first real experiment/CI run starts hot.
    from .experiments import implementation_check, safety_check
    print(f"warming artifact store at {location} for n={args.n}, t={args.t} ...")
    for label, check in (
        ("Theorem 6.5 (P_min implements P0 in gamma_min)",
         implementation_check.check_theorem_6_5),
        ("Theorem 6.6 (P_basic implements P0 in gamma_basic)",
         implementation_check.check_theorem_6_6),
    ):
        report = check(args.n, args.t, store=store)
        print(f"  {label}: {'ok' if report.ok else 'MISMATCHES'} "
              f"({report.checked_states} states)")
    if args.safety:
        for label, check in (
            ("Definition 6.2 safety in gamma_min", safety_check.check_gamma_min),
            ("Definition 6.2 safety in gamma_basic", safety_check.check_gamma_basic),
        ):
            report = check(args.n, args.t, store=store)
            print(f"  {label}: {'safe' if report.safe else 'VIOLATIONS'} "
                  f"({report.points_checked} points)")
    stats = store.stats()
    print(f"done: {stats.entries} entries, {stats.puts} written this run")
    return 0


def _cache_missing(args: argparse.Namespace, store: ArtifactStore, location) -> int:
    """``cache missing`` — the resumable-state inspection dual of ``warm``.

    Reports which of the (n, t) theorem/safety artifacts ``cache warm`` would
    build are already present, without computing anything.  Exit code 1 when
    at least one is missing, so scripts can gate a warm run on it.
    """
    from .kbp.programs import make_p0
    from .protocols.pbasic import BasicProtocol
    from .protocols.pmin import MinProtocol
    from .store import implementation_report_key, safety_report_key
    from .systems.contexts import gamma_basic, gamma_min
    n, t = args.n, args.t
    artifacts = [
        ("Theorem 6.5 report (P_min implements P0 in gamma_min)",
         implementation_report_key(MinProtocol(t), make_p0(n), gamma_min(n, t),
                                   None, 10)),
        ("Theorem 6.6 report (P_basic implements P0 in gamma_basic)",
         implementation_report_key(BasicProtocol(t), make_p0(n), gamma_basic(n, t),
                                   None, 10)),
    ]
    if args.safety:
        artifacts.extend([
            ("Definition 6.2 safety report in gamma_min",
             safety_report_key(MinProtocol(t), gamma_min(n, t), 10)),
            ("Definition 6.2 safety report in gamma_basic",
             safety_report_key(BasicProtocol(t), gamma_basic(n, t), 10)),
        ])
    print(f"artifact store at {location}, n={n}, t={t}:")
    missing = 0
    for label, key in artifacts:
        present = store.contains(key)
        missing += 0 if present else 1
        print(f"  [{'cached ' if present else 'MISSING'}] {label}")
    if missing:
        print(f"{missing} of {len(artifacts)} artifacts missing; "
              f"'repro-eba cache warm --n {n} --t {t}"
              f"{' --safety' if args.safety else ''}' builds them")
        return 1
    print(f"all {len(artifacts)} artifacts cached; a rerun is free")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the job server (:mod:`repro.service`) in the foreground."""
    from .service import JobServer
    configure_logging(args.log_level)
    store = _make_store(args)
    if store is None:
        # No cache flags: coalesce and re-serve within this server's lifetime,
        # but do not touch the user's on-disk cache unasked.
        store = ArtifactStore()
        location = "in-memory (per-server; --cache/--cache-dir persists across restarts)"
    else:
        location = str(args.cache_dir if args.cache_dir is not None
                       else default_cache_dir())
    server = JobServer(host=args.host, port=args.port, store=store,
                       workers=args.workers, executor=_make_executor(args),
                       verbose=args.verbose, journal=args.journal,
                       max_queue=args.max_queue, job_timeout=args.job_timeout,
                       task_retries=args.task_retries)
    host, port = server.address
    print(f"repro-eba job server on http://{host}:{port} ({args.workers} worker(s))")
    print(f"artifact store: {location}")
    if server.journal is not None:
        recovered = server.queue.recovered
        print(f"journal: {server.journal.path} (recovered "
              f"{recovered.get('done', 0)} done, {recovered.get('failed', 0)} failed, "
              f"{recovered.get('requeued', 0)} requeued)")
    print("endpoints: POST /jobs | GET /jobs/<id> | GET /jobs/<id>/result | "
          "POST /jobs/<id>/cancel | GET /healthz | GET /stats | GET /metrics")
    print("Ctrl-C stops the server gracefully")
    sys.stdout.flush()
    with _obs_flags(args):
        server.serve_until_interrupt()
    print("server stopped; goodbye")
    return 0


def _submit_body(args: argparse.Namespace) -> dict:
    """Build the wire-format request body for ``repro-eba submit``."""
    from .service import run_request, sweep_request, theorem_request
    if args.what == "run":
        preferences, pattern = _build_scenario(args)
        return run_request(args.protocol, args.t, args.n, preferences,
                           pattern=pattern, horizon=args.horizon)
    if args.what == "sweep":
        protocols = [(name.strip(), args.t)
                     for name in args.protocols.split(",") if name.strip()]
        workload = {"n": args.n, "t": args.t, "count": args.count, "seed": args.seed}
        if args.model is not None:
            workload["model"] = args.model
        return sweep_request(protocols, workload=workload, horizon=args.horizon)
    return theorem_request(args.theorem, args.n, args.t)


def _print_submit_result(payload: dict) -> int:
    """Render a fetched job payload the way the one-shot commands would."""
    if payload["kind"] == "run":
        print(payload["timeline"])
        print()
        if payload["eba_ok"]:
            print("EBA specification: OK (all nonfaulty decide by round "
                  f"{payload['eba_deadline']})")
            return 0
        print("EBA specification violated:")
        for violation in payload["violations"]:
            print(f"  - {violation}")
        return 1
    if payload["kind"] == "sweep":
        print(payload["table"])
        return 0
    status = "holds" if payload["holds"] else "FAILS"
    print(f"Theorem {payload['theorem']} at n={payload['n']}, t={payload['t']}: "
          f"{status} ({payload['checked_states']} states checked, "
          f"{payload['mismatches']} mismatch(es))")
    return 0 if payload["holds"] else 1


def _make_progress_printer() -> Callable[[dict], None]:
    """A ``ServiceClient.wait`` progress callback rendering to stderr.

    The server already throttles progress updates, but polling re-reads the
    same snapshot; only a *changed* line is printed.
    """
    last: List[str] = [""]

    def on_progress(status: dict) -> None:
        progress = status.get("progress") or {}
        parts = [f"progress: {progress.get('phase', 'working')}"]
        done, total = progress.get("done"), progress.get("total")
        if done is not None and total:
            parts.append(f"{done}/{total}")
            if progress.get("unit"):
                parts.append(str(progress["unit"]))
        eta = progress.get("eta")
        if eta is not None:
            parts.append(f"(eta {eta:.0f}s)")
        line = " ".join(parts)
        if line != last[0]:
            last[0] = line
            print(line, file=sys.stderr)

    return on_progress


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit a job to a running server; optionally wait for the result."""
    from .service import ServiceClient
    client = ServiceClient(args.url, timeout=args.http_timeout)
    receipt = client.submit(_submit_body(args))
    how = ("coalesced onto an in-flight job" if receipt["coalesced"]
           else "served from the warm store" if receipt["hit"]
           else f"state: {receipt['state']}")
    print(f"job {receipt['job'][:16]}… submitted ({how})", file=sys.stderr)
    if not args.wait:
        print(receipt["job"])
        return 0
    payload = client.wait(receipt["job"], poll_interval=args.poll,
                          timeout=args.timeout,
                          on_progress=_make_progress_printer())
    return _print_submit_result(payload)


def _cmd_obs(args: argparse.Namespace) -> int:
    """Show the metrics registry — this process's, or a running server's."""
    if args.url is not None:
        from .service import ServiceClient
        snapshot = ServiceClient(args.url, timeout=args.http_timeout).metrics()
    else:
        # Importing the service layer registers its metric families, so a
        # fresh process still reports the complete registry (zeros included).
        from . import service as _service  # noqa: F401
        snapshot = REGISTRY.snapshot()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(render_table(snapshot))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the AST-based invariant linter (see docs/static-analysis.md)."""
    from .analysis.lint import run_lint_command
    return run_lint_command(args)


def _cmd_list(_args: argparse.Namespace) -> int:
    print("available experiments (repro-eba experiment <id> [--n N --t T]):")
    for key, (description, _runner) in EXPERIMENTS.items():
        print(f"  {key:>4}  {description}")
    print()
    print("available protocols (repro-eba run --protocol <name>):")
    for name in PROTOCOLS:
        print(f"  {name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-eba",
        description="Reproduction of 'Optimal Eventual Byzantine Agreement Protocols "
                    "with Omission Failures' (PODC 2023)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="simulate one scenario and check EBA")
    run_parser.add_argument("--protocol", choices=sorted(PROTOCOLS), default="min")
    run_parser.add_argument("--n", type=int, default=6, help="number of agents")
    run_parser.add_argument("--t", type=int, default=2, help="failure bound")
    run_parser.add_argument("--scenario",
                            choices=["custom", "failure-free", "example71", "intro",
                                     "hidden-chain", "random"],
                            default="custom")
    run_parser.add_argument("--preferences", type=str, default="",
                            help="comma-separated initial preferences (custom/failure-free)")
    run_parser.add_argument("--silent", type=str, default="",
                            help="comma-separated agents that stay silent (custom scenario)")
    run_parser.add_argument("--seed", type=int, default=0, help="seed for --scenario random")
    run_parser.add_argument("--show-rounds", action="store_true",
                            help="print the full round-by-round message view")
    _add_backend_arguments(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    experiment_parser = subparsers.add_parser("experiment",
                                              help="regenerate one of the paper's results")
    experiment_parser.add_argument("id", help="experiment id, e.g. e3 (see 'list')")
    experiment_parser.add_argument("--n", type=int, help="agents (default 6; 3 for e7, e10, e11)")
    experiment_parser.add_argument("--t", type=int, help="failure bound (default 2; 1 for e7, e10, e11)")
    _add_backend_arguments(experiment_parser)
    experiment_parser.set_defaults(handler=_cmd_experiment)

    models_parser = subparsers.add_parser(
        "failure-models",
        help="compare the protocols across failure models (SO / RO / GO)")
    models_parser.add_argument("--model",
                               # No failure-free here: a comparison over the
                               # model with no adversaries is meaningless, and
                               # its t must be 0.
                               choices=["all", *(name for name in available_models()
                                                 if name != "failure-free")],
                               default="all",
                               help="failure model to compare against the SO(t) baseline "
                                    "(default: all of SO/RO/GO)")
    models_parser.add_argument("--n", type=int, default=4, help="number of agents")
    models_parser.add_argument("--t", type=int, default=1, help="failure bound")
    models_parser.add_argument("--count", type=int, default=12,
                               help="random scenarios per model (plus named worst cases)")
    models_parser.add_argument("--seed", type=int, default=23, help="workload seed")
    models_parser.add_argument("--skip-theorems", action="store_true",
                               help="skip the model-checked Theorem 6.5/6.6 verification "
                                    "at n=3, t=1 (the exhaustive GO system takes ~30 s)")
    _add_backend_arguments(models_parser)
    models_parser.set_defaults(handler=_cmd_failure_models)

    cache_parser = subparsers.add_parser(
        "cache",
        help="inspect, clear, or warm the content-addressed artifact store")
    cache_parser.add_argument("cache_command",
                              choices=["stats", "missing", "clear", "warm"],
                              help="stats: entries/sizes/kinds; missing: which (n, t) "
                                   "warm artifacts are absent (exit 1 if any); clear: "
                                   "delete every entry; warm: pre-build the (n, t) "
                                   "theorem-check artifacts")
    cache_parser.add_argument("--json", action="store_true",
                              help="with 'stats': print the machine-readable JSON "
                                   "document (the same schema the service's /stats "
                                   "endpoint embeds)")
    cache_parser.add_argument("--cache-dir", type=str, default=None, metavar="PATH",
                              help="store location (default: $REPRO_EBA_CACHE_DIR or "
                                   "~/.cache/repro-eba)")
    cache_parser.add_argument("--n", type=int, default=3,
                              help="system size for 'warm' (default 3)")
    cache_parser.add_argument("--t", type=int, default=1,
                              help="failure bound for 'warm' (default 1)")
    cache_parser.add_argument("--safety", action="store_true",
                              help="also warm the Definition 6.2 safety reports")
    cache_parser.set_defaults(handler=_cmd_cache)

    from .service.server import DEFAULT_PORT

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the HTTP job server (repro.service); submit with 'submit'")
    serve_parser.add_argument("--host", type=str, default="127.0.0.1",
                              help="interface to bind (default: loopback only)")
    serve_parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                              help=f"TCP port (default {DEFAULT_PORT}; 0 picks a "
                                   "free port)")
    serve_parser.add_argument("--workers", type=int, default=2,
                              help="worker threads draining the job queue (default 2)")
    serve_parser.add_argument("--verbose", action="store_true",
                              help="log every HTTP request to stderr")
    serve_parser.add_argument("--journal", type=str, default=None, metavar="PATH",
                              help="append-only job journal at PATH; a restarted "
                                   "server on the same journal re-serves finished "
                                   "jobs and re-enqueues in-flight ones")
    serve_parser.add_argument("--max-queue", type=int, default=None, metavar="N",
                              help="backpressure bound on queued jobs: submissions "
                                   "beyond N get HTTP 503 + Retry-After "
                                   "(default: unbounded)")
    serve_parser.add_argument("--job-timeout", type=float, default=None,
                              metavar="SECONDS",
                              help="per-job wall-clock budget; a timed-out job is "
                                   "retried, then failed (default: unlimited)")
    serve_parser.add_argument("--task-retries", type=int, default=0, metavar="N",
                              help="retry budget for retryable job failures — "
                                   "timeouts, transient IO, dead worker processes "
                                   "(default 0: fail on the first error)")
    serve_parser.add_argument("--log-level", type=str, default="warning",
                              choices=["debug", "info", "warning", "error"],
                              help="threshold for the repro.* logging hierarchy "
                                   "on stderr (default: warning)")
    _add_backend_arguments(serve_parser)
    serve_parser.set_defaults(handler=_cmd_serve)

    submit_parser = subparsers.add_parser(
        "submit",
        help="submit a run/sweep/theorem job to a running server")
    submit_parser.add_argument("what", choices=["run", "sweep", "theorem"],
                               help="which computation to submit")
    submit_parser.add_argument("--url", type=str,
                               default=f"http://127.0.0.1:{DEFAULT_PORT}",
                               help="server base URL (default: the local default port)")
    submit_parser.add_argument("--wait", action="store_true",
                               help="poll until the job finishes and print its result "
                                    "(without it: print the job id and exit)")
    submit_parser.add_argument("--timeout", type=float, default=600.0,
                               help="overall --wait deadline in seconds (default 600)")
    submit_parser.add_argument("--poll", type=float, default=0.2,
                               help="--wait poll interval in seconds (default 0.2)")
    submit_parser.add_argument("--http-timeout", type=float, default=10.0,
                               help="per-request HTTP timeout in seconds (default 10)")
    submit_parser.add_argument("--protocol", choices=sorted(PROTOCOLS), default="min",
                               help="protocol for 'run'")
    submit_parser.add_argument("--protocols", type=str, default="min,basic,opt",
                               help="comma-separated protocols for 'sweep'")
    submit_parser.add_argument("--n", type=int, default=4, help="number of agents")
    submit_parser.add_argument("--t", type=int, default=1, help="failure bound")
    submit_parser.add_argument("--scenario",
                               choices=["custom", "failure-free", "example71", "intro",
                                        "hidden-chain", "random"],
                               default="custom", help="scenario for 'run'")
    submit_parser.add_argument("--preferences", type=str, default="",
                               help="comma-separated initial preferences ('run')")
    submit_parser.add_argument("--silent", type=str, default="",
                               help="comma-separated silent agents ('run' custom)")
    submit_parser.add_argument("--count", type=int, default=8,
                               help="random scenarios for 'sweep' (default 8)")
    submit_parser.add_argument("--seed", type=int, default=0,
                               help="workload seed ('sweep' / 'run --scenario random')")
    submit_parser.add_argument("--model", type=str, default=None,
                               help="failure model for the 'sweep' workload "
                                    "(default: sending omissions)")
    submit_parser.add_argument("--horizon", type=int, default=None,
                               help="simulation horizon override")
    submit_parser.add_argument("--theorem", choices=list(THEOREMS), default="6.5",
                               help="which implementation theorem for 'theorem'")
    submit_parser.set_defaults(handler=_cmd_submit)

    obs_parser = subparsers.add_parser(
        "obs",
        help="show the unified metrics registry (local or from a server)")
    obs_parser.add_argument("--url", type=str, default=None,
                            help="scrape a running server's /metrics instead of "
                                 "this process's registry")
    obs_parser.add_argument("--json", action="store_true",
                            help="print the JSON snapshot instead of the table")
    obs_parser.add_argument("--http-timeout", type=float, default=10.0,
                            help="per-request HTTP timeout for --url (default 10)")
    obs_parser.set_defaults(handler=_cmd_obs)

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the AST-based invariant linter (DET/LOCK/OBS/API rules)",
        description="Static analysis for the repo's determinism, lock-"
                    "discipline, observability, and API-surface conventions. "
                    "See docs/static-analysis.md.")
    from .analysis.lint import add_lint_arguments
    add_lint_arguments(lint_parser)
    lint_parser.set_defaults(handler=_cmd_lint)

    list_parser = subparsers.add_parser("list", help="list experiments and protocols")
    list_parser.set_defaults(handler=_cmd_list)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
