"""Checking whether a concrete protocol implements a knowledge-based program.

Section 4: a concrete action protocol ``P`` *implements* a knowledge-based
program ``P`` in a context ``γ`` if, writing ``I = I_{γ, P}`` for the system
``P`` itself generates, we have ``P_i(s) = P^I_i(s)`` for every agent ``i`` and
every local state ``s`` that arises in ``I``.

This module provides

* :func:`check_implements` — build the system generated by the concrete
  protocol (or accept one already built) and compare its actions against the
  knowledge-based program's prescriptions point by point (Theorems 6.5 and 6.6
  are instances of this check);
* :func:`programs_equivalent` — check that two knowledge-based programs
  prescribe the same actions over a given system (used for the Section 7 claim
  that ``P1 ≡ P0`` in the limited-information contexts);
* :func:`derive_implementation` — a small epistemic-synthesis loop that
  iterates "generate the system, read off the prescribed actions, use them as
  the next protocol" until a fixed point, producing a
  :class:`TableProtocol`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, TYPE_CHECKING, Tuple

from ..core.cancel import checkpoint
from ..core.types import Action, NOOP
from ..exchange.base import InformationExchange, LocalState
from ..logic.semantics import ModelChecker
from ..protocols.base import ActionProtocol
from ..systems.contexts import EBAContext
from ..systems.interpreted import InterpretedSystem
from ..systems.points import Point
from .programs import KnowledgeBasedProgram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..store import StoreLike


@dataclass(frozen=True)
class Mismatch:
    """A local state at which the concrete protocol and the KBP disagree."""

    agent: int
    point: Point
    time: int
    concrete_action: Action
    prescribed_action: Action

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"agent {self.agent} at {self.point}: protocol does "
                f"{self.concrete_action!r} but the program prescribes {self.prescribed_action!r}")


@dataclass
class ImplementationReport:
    """The outcome of an implementation check."""

    protocol_name: str
    program_name: str
    context_name: str
    checked_states: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the protocol implements the knowledge-based program on the checked system."""
        return not self.mismatches

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "implements" if self.ok else f"{len(self.mismatches)} mismatch(es)"
        return (f"ImplementationReport({self.protocol_name} vs {self.program_name} "
                f"in {self.context_name}: {status}, {self.checked_states} states checked)")


def _class_anchors(system: InterpretedSystem,
                   max_time: int) -> Iterator[Tuple[int, LocalState, Point]]:
    """``(agent, local state, first point)`` of each class anchored at time ≤ ``max_time``.

    Identical local states always get identical prescriptions (guards are
    agent-local), so one comparison at the first point of each interned
    indistinguishability class suffices.  Synchrony puts a whole class at one
    time, so skipping classes anchored past ``max_time`` skips exactly the
    states a per-point scan would skip.  Polls the cancel scope once per agent.
    """
    for agent in range(system.n):
        checkpoint()
        partition = system.partition(agent)
        for state, first_index in zip(partition.class_states,
                                      partition.class_first_indices):
            point = system.point_at(first_index)
            if point.time <= max_time:
                yield agent, state, point


def check_implements(protocol: ActionProtocol, program: KnowledgeBasedProgram,
                     context: EBAContext,
                     system: Optional[InterpretedSystem] = None,
                     max_time: Optional[int] = None,
                     max_mismatches: int = 10,
                     store: "StoreLike" = None) -> ImplementationReport:
    """Check that ``protocol`` implements ``program`` in ``context``.

    Parameters
    ----------
    protocol, program, context:
        The concrete protocol, the knowledge-based program, and the context.
    system:
        The system ``I_{γ, P}``; built from the context and protocol if omitted.
    max_time:
        Compare actions only at times up to this bound (defaults to
        ``horizon - 1`` so the temporal operators inside guards stay within the
        bounded system).
    max_mismatches:
        Stop collecting counterexamples after this many.
    store:
        Optional :class:`~repro.store.ArtifactStore` (or cache directory):
        the finished report is cached under a content key covering the
        protocol, program, context, and check bounds, and the system build
        goes through the store too.  Only consulted when ``system`` is *not*
        supplied — a caller-provided system is not part of the key, so caching
        against it could alias distinct inputs.
    """
    from ..store import implementation_report_key, resolve_store
    resolved_store = resolve_store(store) if system is None else None
    report_key = None
    if resolved_store is not None:
        report_key = implementation_report_key(protocol, program, context,
                                               max_time, max_mismatches)
        cached = resolved_store.get(report_key)
        if cached is not None:
            return cached
    if system is None:
        system = context.build_system(protocol, store=resolved_store)
    if max_time is None:
        max_time = system.horizon - 1
    checker = ModelChecker(system)
    report = ImplementationReport(
        protocol_name=protocol.name,
        program_name=program.name,
        context_name=context.name,
    )
    mismatches: List[Mismatch] = []
    for agent, state, point in _class_anchors(system, max_time):
        prescribed = program.prescribed_action(checker, agent, point)
        concrete = protocol.act(state)
        report.checked_states += 1
        if concrete != prescribed:
            mismatches.append(Mismatch(
                agent=agent,
                point=point,
                time=point.time,
                concrete_action=concrete,
                prescribed_action=prescribed,
            ))
    # Report mismatches in point-major system order (the order a per-point
    # scan encounters them), truncated to the requested cap.
    mismatches.sort(key=lambda m: (m.point.run_index, m.point.time, m.agent))
    report.mismatches.extend(mismatches[:max_mismatches])
    if resolved_store is not None and report_key is not None:
        resolved_store.put(report_key, report, kind="implementation-report")
    return report


def programs_equivalent(first: KnowledgeBasedProgram, second: KnowledgeBasedProgram,
                        system: InterpretedSystem,
                        max_time: Optional[int] = None) -> bool:
    """Whether two knowledge-based programs prescribe identical actions over ``system``.

    Prescriptions depend only on the acting agent's local state, so each
    interned indistinguishability class is compared once, at its first point.
    """
    if max_time is None:
        max_time = system.horizon - 1
    checker = ModelChecker(system)
    return all(first.prescribed_action(checker, agent, point)
               == second.prescribed_action(checker, agent, point)
               for agent, _, point in _class_anchors(system, max_time))


class TableProtocol(ActionProtocol):
    """A concrete protocol given extensionally by a local-state → action table.

    Produced by :func:`derive_implementation`; states not in the table map to
    the fallback action (``noop``), which is the right behaviour for states
    that never arise in the generating system.
    """

    name = "P_table"
    state_type = LocalState

    def __init__(self, t: int, exchange_factory, table: Dict[Tuple[int, LocalState], Action],
                 fallback: Action = NOOP) -> None:
        super().__init__(t)
        self._exchange_factory = exchange_factory
        self.table = dict(table)
        self.fallback = fallback

    def make_exchange(self, n: int) -> InformationExchange:
        return self._exchange_factory(n)

    def act(self, state: LocalState) -> Action:
        return self.table.get((state.agent, state), self.fallback)


def derive_implementation(program: KnowledgeBasedProgram, context: EBAContext,
                          seed: ActionProtocol,
                          max_iterations: int = 10,
                          store: "StoreLike" = None) -> Tuple[TableProtocol, bool]:
    """Iteratively search for an implementation of ``program`` in ``context``.

    Starting from ``seed`` (which fixes the information exchange and the
    failure bound), repeatedly build the system generated by the current
    candidate, read off the program's prescriptions, and use them as the next
    candidate.  Returns the final :class:`TableProtocol` and a flag indicating
    whether a fixed point (an actual implementation) was reached.

    The loop is not guaranteed to converge for arbitrary knowledge-based
    programs (the paper discusses epistemic synthesis as future work); for
    ``P0`` in the limited-information contexts it converges quickly because the
    prescriptions coincide with ``P_min`` / ``P_basic``.
    """
    from ..store import resolve_store
    resolved_store = resolve_store(store)
    current: ActionProtocol = seed
    table: Dict[Tuple[int, LocalState], Action] = {}
    for _ in range(max_iterations):
        system = context.build_system(current, store=resolved_store)
        checker = ModelChecker(system)
        table = {(agent, state): program.prescribed_action(checker, agent, point)
                 for agent, state, point in _class_anchors(system, system.horizon - 1)}
        candidate = TableProtocol(
            t=seed.t,
            exchange_factory=seed.make_exchange,
            table=table,
        )
        if _protocols_agree_on_table(current, table):
            return candidate, True
        current = candidate
    return TableProtocol(t=seed.t, exchange_factory=seed.make_exchange, table=table), False


def _protocols_agree_on_table(protocol: ActionProtocol,
                              table: Dict[Tuple[int, LocalState], Action]) -> bool:
    """Whether ``protocol`` already performs every action recorded in ``table``."""
    for (agent, state), action in table.items():
        if protocol.act(state) != action:
            return False
    return True
