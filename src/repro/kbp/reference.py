"""The naive point-by-point Definition 6.2 scan, retained as a differential-testing oracle.

This is the original nested-loop safety check that
:func:`repro.kbp.safety.check_safety` replaced with word-array and per-class
reductions.  It is deliberately straightforward — it visits every point and
agent, walks explicit indistinguishability classes, and reads decisions off
the action log — and it evaluates the clause-2 trigger ``K_i`` "nobody is
deciding 0" with :class:`~repro.logic.reference.ReferenceModelChecker`, so it
shares no kernel with the production scan.  ``tests/test_kbp_safety.py``
asserts that both give identical reports (counters, violations, and violation
order).

It is not used on any production path; prefer
:func:`repro.kbp.safety.check_safety`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set, Tuple

from ..analysis.chains import zero_chains
from ..core.types import AgentId
from ..logic.formula import Knows, nobody_deciding
from ..logic.reference import ReferenceModelChecker
from ..protocols.base import ActionProtocol
from ..systems.contexts import EBAContext
from ..systems.interpreted import InterpretedSystem
from ..systems.points import Point
from .safety import SafetyReport, SafetyViolation, _CLAUSE1_DETAIL, _CLAUSE2_DETAIL

__all__ = ["chain_receipt_table", "scan_per_point"]


def chain_receipt_table(system: InterpretedSystem) -> Dict[Tuple[int, AgentId], int]:
    """Map ``(run_index, agent)`` to the earliest time a 0-chain ends at the agent.

    Pairs with no 0-chain are absent from the table.
    """
    table: Dict[Tuple[int, AgentId], int] = {}
    for run_index, trace in enumerate(system.runs):
        for chain in zero_chains(trace):
            key = (run_index, chain.last_agent)
            current = table.get(key)
            if current is None or chain.length < current:
                table[key] = chain.length
    return table


def _decides_zero_in_round(system: InterpretedSystem, run_index: int, agent: AgentId,
                           round_number: int) -> bool:
    """Whether the agent performs ``decide(0)`` in the given 1-based round of the run."""
    trace = system.runs[run_index]
    if not 1 <= round_number <= trace.horizon:
        return False
    action = trace.action_of(agent, round_number - 1)
    return action.is_decision and action.value == 0


def scan_per_point(protocol: ActionProtocol, context: EBAContext,
                   system: InterpretedSystem, max_violations: int = 10) -> SafetyReport:
    """Check Definition 6.2 on a built system one point and agent at a time."""
    checker = ReferenceModelChecker(system)
    report = SafetyReport(protocol_name=protocol.name, context_name=context.name)
    chain_table = chain_receipt_table(system)
    n = system.n

    # Pre-compute, for clause 2's trigger, where each agent *cannot* rule out a
    # 0 decision this round (the complement of K_i "nobody is deciding 0").
    cannot_rule_out: Dict[AgentId, FrozenSet[Point]] = {}
    everything = frozenset(system.points)
    for agent in range(n):
        knows_no_zero = Knows(agent, nobody_deciding(n, 0))
        cannot_rule_out[agent] = everything - checker.satisfying_points(knows_no_zero)

    all_ones_runs: Set[int] = {
        run_index for run_index, trace in enumerate(system.runs)
        if all(value == 1 for value in trace.preferences)
    }

    for point in system.points:
        run_index, time = point
        report.points_checked += 1
        for agent in range(n):
            # ---- clause 1: no chain received => an all-ones run is indistinguishable.
            earliest_chain = chain_table.get((run_index, agent))
            received_chain = earliest_chain is not None and earliest_chain <= time
            if not received_chain:
                report.clause1_checks += 1
                witnesses = system.indistinguishable(agent, point)
                if not any(peer.run_index in all_ones_runs for peer in witnesses):
                    if len(report.violations) < max_violations:
                        report.violations.append(SafetyViolation(
                            clause=1, agent=agent, point=point,
                            detail=_CLAUSE1_DETAIL))
                    continue
            # ---- clause 2: cannot rule out a 0 decision => a nonfaulty witness exists.
            if time >= system.horizon:
                continue
            state = system.local_state(point, agent)
            if state.decided is not None:
                continue
            if point not in cannot_rule_out[agent]:
                continue
            report.clause2_checks += 1
            if not _clause2_holds(system, agent, point):
                if len(report.violations) < max_violations:
                    report.violations.append(SafetyViolation(
                        clause=2, agent=agent, point=point,
                        detail=_CLAUSE2_DETAIL))
    return report


def _clause2_holds(system: InterpretedSystem, agent: AgentId, point: Point) -> bool:
    """The existential part of clause 2 of Definition 6.2 at one point."""
    time = point.time
    for peer in system.indistinguishable(agent, point):
        peer_run = system.runs[peer.run_index]
        if agent not in peer_run.nonfaulty:
            continue
        for witness in sorted(peer_run.nonfaulty):
            if not _decides_zero_in_round(system, peer.run_index, witness, time + 1):
                continue
            if time == 0:
                return True
            if _clause2_second_witness(system, witness, peer.run_index, time):
                return True
    return False


def _clause2_second_witness(system: InterpretedSystem, witness: AgentId, run_index: int,
                            time: int) -> bool:
    """The nested witness of clause 2(c): a run where the chain is one step shorter.

    There must be a run ``r''`` in which ``witness`` has the same local state at
    ``time``, both ``witness`` and some ``j'`` are nonfaulty, and ``j'`` decides
    0 in round ``time``.
    """
    anchor = Point(run_index, time)
    for peer in system.indistinguishable(witness, anchor):
        peer_run = system.runs[peer.run_index]
        if witness not in peer_run.nonfaulty:
            continue
        for other in sorted(peer_run.nonfaulty):
            if _decides_zero_in_round(system, peer.run_index, other, time):
                return True
    return False
