"""Declarative run specifications: :class:`RunSpec`, :class:`SweepSpec`, and the
fluent :class:`Sweep` builder.

Every quantitative claim of the paper reduces to one shape of computation: run
a set of action protocols over a workload of ``(preferences, failure-pattern)``
scenarios and compare corresponding runs.  A :class:`SweepSpec` captures that
shape declaratively — protocols, system size, workload, horizon, and the seed
the workload was generated from — so the *what* of an experiment is separated
from the *how* of its execution (see :mod:`repro.api.executors`).

Specs are frozen: building one never runs anything, and the fluent builder
returns a new :class:`Sweep` at every step, so partially built sweeps can be
shared and forked freely::

    base = Sweep.of(MinProtocol(t=1), OptimalFipProtocol(t=1))
    spec = base.on(random_scenarios(n=7, t=2, count=500)).with_horizon(5).build()
    results = spec.run(ParallelExecutor())
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence, TYPE_CHECKING, Tuple

from ..core.errors import ConfigurationError
from ..core.types import PreferenceVector, validate_preferences
from ..failures.pattern import FailurePattern
from ..obs import trace as _trace
from ..obs.bus import BUS
from ..protocols.base import ActionProtocol
from ..simulation.trace import RunTrace, Scenario

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..store import StoreLike
    from .executors import Executor
    from .results import ResultSet


def _duplicate_names(protocols: Sequence[ActionProtocol]) -> Tuple[str, ...]:
    """The protocol names that occur more than once, in first-seen order."""
    seen: dict = {}
    for protocol in protocols:
        seen[protocol.name] = seen.get(protocol.name, 0) + 1
    return tuple(name for name, count in seen.items() if count > 1)


def _check_unique_names(protocols: Sequence[ActionProtocol], where: str) -> None:
    duplicates = _duplicate_names(protocols)
    if duplicates:
        raise ConfigurationError(
            f"duplicate protocol name(s) {', '.join(repr(name) for name in duplicates)} "
            f"in {where}; protocol names must be unique so results can be keyed by name"
        )


def _validate_preferences(preferences: Sequence[int], n: int) -> Tuple[int, ...]:
    """Like :func:`validate_preferences` but raising :class:`ConfigurationError`."""
    try:
        return validate_preferences(preferences, n)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc


def _normalize_scenarios(scenarios: Iterable[Scenario], n: Optional[int]
                         ) -> Tuple[int, Tuple[Scenario, ...]]:
    """Freeze a workload and infer/validate the system size ``n``."""
    frozen: list = []
    for index, (preferences, pattern) in enumerate(scenarios):
        if n is None:
            n = len(preferences)
        prefs = _validate_preferences(preferences, n)
        if pattern.n != n:
            raise ConfigurationError(
                f"scenario {index}: failure pattern is for {pattern.n} agents, expected {n}"
            )
        frozen.append((prefs, pattern))
    if n is None:
        raise ConfigurationError("cannot infer the system size from an empty workload; "
                                 "pass n explicitly")
    return n, tuple(frozen)


@dataclass(frozen=True)
class RunSpec:
    """A declarative description of one simulated run.

    The spec is pure data: constructing it validates the configuration but runs
    nothing.  Call :meth:`run` (optionally with an executor) to obtain the
    :class:`~repro.simulation.trace.RunTrace`.
    """

    protocol: ActionProtocol
    n: int
    preferences: PreferenceVector
    pattern: Optional[FailurePattern] = None
    horizon: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "preferences",
                           _validate_preferences(self.preferences, self.n))
        if self.pattern is not None and self.pattern.n != self.n:
            raise ConfigurationError(
                f"failure pattern is for {self.pattern.n} agents, expected {self.n}"
            )
        self.protocol.validate_for(self.n)

    @property
    def scenario(self) -> Scenario:
        """The run's initial global state as a workload item."""
        pattern = self.pattern if self.pattern is not None else FailurePattern.failure_free(self.n)
        return (self.preferences, pattern)

    def run(self, executor: Optional["Executor"] = None,
            store: "StoreLike" = None) -> RunTrace:
        """Execute the run and return its trace.

        ``store`` (an :class:`~repro.store.ArtifactStore`, a cache-directory
        path, or ``None`` = off) serves the trace from the content-addressed
        artifact store when an identical run was executed before, and persists
        it otherwise.
        """
        from ..store import CachingExecutor, resolve_store
        from .executors import resolve_executor
        # Normalize pattern=None to the explicit failure-free pattern (as
        # .scenario and SweepSpec.tasks() do), so the same run shares one
        # cache key whether it was executed directly or inside a sweep.
        preferences, pattern = self.scenario
        task = (self.protocol, self.n, preferences, pattern, self.horizon)
        resolved_store = resolve_store(store)
        if resolved_store is not None:
            return CachingExecutor(resolved_store, executor).run_tasks([task])[0]
        return resolve_executor(executor).run_tasks([task])[0]


@dataclass(frozen=True)
class SweepSpec:
    """A declarative description of a protocol sweep over a workload.

    Executing the spec produces one run per ``(protocol, scenario)`` pair —
    the runs of different protocols on the same scenario are *corresponding
    runs* in the paper's sense (same initial global state), which is what makes
    the resulting :class:`~repro.api.results.ResultSet` comparable protocol by
    protocol.

    Attributes
    ----------
    protocols:
        The action protocols to sweep (names must be unique).
    n:
        The number of agents.
    scenarios:
        The workload: ``(preferences, failure-pattern)`` pairs.
    horizon:
        Optional fixed number of rounds per run (``None`` = run until everyone
        has decided).
    seed:
        Optional provenance marker: the seed the workload was generated from
        (recorded by :meth:`Sweep.on_random`).  Purely informational.
    """

    protocols: Tuple[ActionProtocol, ...]
    n: int
    scenarios: Tuple[Scenario, ...]
    horizon: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        protocols = tuple(self.protocols)
        if not protocols:
            raise ConfigurationError("a sweep needs at least one protocol")
        object.__setattr__(self, "protocols", protocols)
        _check_unique_names(protocols, "SweepSpec")
        n, scenarios = _normalize_scenarios(self.scenarios, self.n)
        object.__setattr__(self, "scenarios", scenarios)
        for protocol in protocols:
            protocol.validate_for(n)

    # ------------------------------------------------------------------ structure

    @property
    def protocol_names(self) -> Tuple[str, ...]:
        return tuple(protocol.name for protocol in self.protocols)

    def __len__(self) -> int:
        """The number of runs the sweep describes."""
        return len(self.protocols) * len(self.scenarios)

    def tasks(self) -> Tuple[tuple, ...]:
        """The sweep's runs as executor tasks, in canonical (protocol-major) order.

        The order is deterministic and independent of the executor, which is
        what guarantees scenario→result ordering in the :class:`ResultSet`.
        """
        return tuple(
            (protocol, self.n, preferences, pattern, self.horizon)
            for protocol in self.protocols
            for preferences, pattern in self.scenarios
        )

    # ------------------------------------------------------------------ execution

    def missing_tasks(self, store: "StoreLike") -> Tuple[tuple, ...]:
        """The tasks whose traces are *not* yet in the store, in canonical order.

        This is the sweep's checkpoint state: :meth:`run` with a store caches
        every completed run individually, so after an interruption the next
        invocation recomputes exactly these tasks and serves the rest from the
        cache.  An empty tuple means a rerun is free.
        """
        from ..store import resolve_store, run_task_key
        resolved = resolve_store(store)
        if resolved is None:
            return self.tasks()
        return tuple(task for task in self.tasks()
                     if not resolved.contains(run_task_key(task)))

    def run(self, executor: Optional["Executor"] = None,
            store: "StoreLike" = None) -> "ResultSet":
        """Execute every run of the sweep and collect a :class:`ResultSet`.

        The result is identical (including ordering) for every executor; the
        backend only changes *where* the runs execute.

        With a ``store``, the whole result set is first looked up under the
        sweep's content key; on a miss, execution goes through a
        :class:`~repro.store.CachingExecutor`, so each completed run is
        checkpointed individually (an interrupted sweep resumes at the first
        missing key) and the assembled result set is persisted at the end.
        """
        from ..store import CachingExecutor, resolve_store, sweep_key
        from .executors import resolve_executor
        from .results import ResultSet
        resolved_store = resolve_store(store)
        spec_key = None
        if resolved_store is not None:
            spec_key = sweep_key(self)
            cached = resolved_store.get(spec_key)
            if cached is not None:
                return cached
            if BUS.has_subscribers("sweep.resume"):
                remaining = len(self.missing_tasks(resolved_store))
                if 0 < remaining < len(self):
                    BUS.emit("sweep.resume", spec=self, remaining=remaining,
                             total=len(self))
            runner: "Executor" = CachingExecutor(resolved_store, executor)
        else:
            runner = resolve_executor(executor)
        sweep_span = _trace.NOOP
        if _trace.is_active():
            sweep_span = _trace.span("sweep.run", "build", {
                "protocols": list(self.protocol_names), "n": self.n,
                "horizon": self.horizon, "tasks": len(self.tasks())})
        with sweep_span:
            traces = runner.run_tasks(self.tasks())
        per_protocol = []
        count = len(self.scenarios)
        for index in range(len(self.protocols)):
            per_protocol.append(tuple(traces[index * count:(index + 1) * count]))
        results = ResultSet(
            protocol_names=self.protocol_names,
            scenarios=self.scenarios,
            traces=tuple(per_protocol),
            horizon=self.horizon,
            seed=self.seed,
        )
        if resolved_store is not None and spec_key is not None:
            resolved_store.put(spec_key, results, kind="resultset")
        return results


@dataclass(frozen=True)
class Sweep:
    """Fluent, immutable builder for :class:`SweepSpec`.

    Every method returns a *new* builder; the receiver is never mutated::

        base = Sweep.of(MinProtocol(1), BasicProtocol(1))
        fast = base.on(workload).with_horizon(3)
        slow = base.on(workload)            # unaffected by ``fast``
    """

    _protocols: Tuple[ActionProtocol, ...] = ()
    _scenarios: Optional[Tuple[Scenario, ...]] = None
    _n: Optional[int] = None
    _horizon: Optional[int] = None
    _seed: Optional[int] = None

    @classmethod
    def of(cls, *protocols: ActionProtocol) -> "Sweep":
        """Start a sweep over the given action protocols."""
        return cls(_protocols=tuple(protocols))

    def on(self, scenarios: Iterable[Scenario], n: Optional[int] = None) -> "Sweep":
        """Set the workload.  ``n`` is inferred from the scenarios if omitted.

        Any seed recorded by an earlier :meth:`on_random` is cleared — it
        described the replaced workload.  Use :meth:`with_seed` *after*
        ``on()`` to attach provenance to an externally generated workload.
        """
        frozen = tuple(scenarios)
        return replace(self, _scenarios=frozen,
                       _n=n if n is not None else self._n, _seed=None)

    def on_random(self, n: int, t: int, count: int, seed: int = 0,
                  model: object = None, **kwargs) -> "Sweep":
        """Set the workload to a seeded random one, recording the seed.

        Without ``model`` this is :func:`repro.workloads.random_scenarios`
        (``SO(t)`` adversaries, the historical behaviour).  Pass ``model`` — a
        :class:`~repro.failures.models.FailureModel` or a registered name such
        as ``"general-omission"`` — to draw the adversaries from any other
        failure model via :func:`repro.workloads.random_model_scenarios`;
        extra ``kwargs`` go to the model's ``sample``.
        """
        if model is None:
            from ..workloads.scenarios import random_scenarios
            scenarios = tuple(random_scenarios(n, t, count=count, seed=seed, **kwargs))
        else:
            from ..workloads.scenarios import random_model_scenarios
            scenarios = tuple(random_model_scenarios(n, t, count=count, model=model,
                                                     seed=seed, **kwargs))
        return replace(self, _scenarios=scenarios, _n=n, _seed=seed)

    def with_horizon(self, horizon: Optional[int]) -> "Sweep":
        """Simulate exactly ``horizon`` rounds per run (``None`` = until decided)."""
        return replace(self, _horizon=horizon)

    def with_seed(self, seed: Optional[int]) -> "Sweep":
        """Record the workload's generating seed on the spec (provenance only)."""
        return replace(self, _seed=seed)

    def build(self) -> SweepSpec:
        """Validate and freeze the builder into a :class:`SweepSpec`."""
        if self._scenarios is None:
            raise ConfigurationError("Sweep has no workload; call .on(...) or .on_random(...)")
        n = self._n
        if n is None:
            if not self._scenarios:
                raise ConfigurationError("cannot infer n from an empty workload; "
                                         "use .on(scenarios, n=...)")
            n = len(self._scenarios[0][0])
        return SweepSpec(protocols=self._protocols, n=n, scenarios=self._scenarios,
                         horizon=self._horizon, seed=self._seed)

    def run(self, executor: Optional["Executor"] = None,
            store: "StoreLike" = None) -> "ResultSet":
        """Build the spec and execute it in one step (see :meth:`SweepSpec.run`)."""
        return self.build().run(executor, store=store)
