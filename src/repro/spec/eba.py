"""Checkers for the Eventual Byzantine Agreement specification (Section 5).

Given a :class:`~repro.simulation.trace.RunTrace`, the four properties are:

* **Unique Decision** — no agent decides twice (in particular, never flips).
* **Agreement** — nonfaulty agents that decide, decide the same value.
* **Validity** — a (nonfaulty) agent that decides ``v`` does so only if some
  agent had initial preference ``v``.
* **Termination** — every nonfaulty agent eventually decides; the paper's
  protocols additionally guarantee a decision by round ``t + 2``.

Each checker returns a list of human-readable violation strings; an empty list
means the property holds on the trace.  :func:`check_eba` bundles all four into
a :class:`SpecReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..simulation.trace import RunTrace

#: Per-agent decision record: the 1-based rounds in which the agent performed a
#: decision action, paired with the decided values, in round order.
DecisionTable = Tuple[Tuple[Tuple[int, int], ...], ...]


def decision_table(trace: RunTrace) -> DecisionTable:
    """Collect every decision action of the trace in one pass over the rounds.

    ``table[agent]`` lists ``(round_number, value)`` for each decision action
    ``agent`` performed, in round order.  The four property checkers below all
    derive their per-agent views from this table, so checking a trace scans
    its rounds once instead of once per agent per property.
    """
    decisions: List[List[Tuple[int, int]]] = [[] for _ in range(trace.n)]
    for record in trace.rounds:
        for agent, action in enumerate(record.actions):
            if action.is_decision:
                decisions[agent].append((record.round_number, action.value))
    return tuple(tuple(rounds) for rounds in decisions)


@dataclass
class SpecReport:
    """The outcome of checking the EBA specification on one trace."""

    trace_summary: str
    unique_decision: List[str] = field(default_factory=list)
    agreement: List[str] = field(default_factory=list)
    validity: List[str] = field(default_factory=list)
    termination: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the trace satisfies all four properties."""
        return not (self.unique_decision or self.agreement or self.validity or self.termination)

    def violations(self) -> List[str]:
        """All violation messages, across the four properties."""
        return [*self.unique_decision, *self.agreement, *self.validity, *self.termination]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "OK" if self.ok else f"{len(self.violations())} violation(s)"
        return f"SpecReport({status}: {self.trace_summary})"


def check_unique_decision(trace: RunTrace,
                          decisions: Optional[DecisionTable] = None) -> List[str]:
    """Unique Decision: an agent never performs a second (or conflicting) decision."""
    if decisions is None:
        decisions = decision_table(trace)
    violations: List[str] = []
    for agent in range(trace.n):
        decision_rounds = [round_number for round_number, _value in decisions[agent]]
        if len(decision_rounds) > 1:
            violations.append(
                f"agent {agent} decides more than once (rounds {decision_rounds})"
            )
    return violations


def check_agreement(trace: RunTrace,
                    decisions: Optional[DecisionTable] = None) -> List[str]:
    """Agreement: all nonfaulty deciders agree on the value."""
    if decisions is None:
        decisions = decision_table(trace)
    violations: List[str] = []
    decided: Dict[int, int] = {}
    for agent in sorted(trace.nonfaulty):
        if decisions[agent]:
            decided[agent] = decisions[agent][0][1]
    values = set(decided.values())
    if len(values) > 1:
        detail = ", ".join(f"agent {agent}→{value}" for agent, value in sorted(decided.items()))
        violations.append(f"nonfaulty agents disagree: {detail}")
    return violations


def check_validity(trace: RunTrace, include_faulty: bool = False,
                   decisions: Optional[DecisionTable] = None) -> List[str]:
    """Validity: a decided value must be someone's initial preference.

    With ``include_faulty=True`` the property is checked for every agent (the
    strengthening that Proposition 6.1 proves for implementations of ``P0``).
    """
    if decisions is None:
        decisions = decision_table(trace)
    violations: List[str] = []
    present_values = set(trace.preferences)
    agents: Sequence[int] = range(trace.n) if include_faulty else sorted(trace.nonfaulty)
    for agent in agents:
        if decisions[agent]:
            value = decisions[agent][0][1]
            if value not in present_values:
                violations.append(
                    f"agent {agent} decided {value} but no agent had that initial preference"
                )
    return violations


def check_termination(trace: RunTrace, deadline: Optional[int] = None,
                      include_faulty: bool = False,
                      decisions: Optional[DecisionTable] = None) -> List[str]:
    """Termination: every nonfaulty agent decides (optionally by a 1-based round ``deadline``)."""
    if decisions is None:
        decisions = decision_table(trace)
    violations: List[str] = []
    agents: Sequence[int] = range(trace.n) if include_faulty else sorted(trace.nonfaulty)
    for agent in agents:
        if not decisions[agent]:
            violations.append(f"agent {agent} never decides within the simulated horizon")
            continue
        round_number = decisions[agent][0][0]
        if deadline is not None and round_number > deadline:
            violations.append(
                f"agent {agent} decides in round {round_number}, after the deadline {deadline}"
            )
    return violations


def check_eba(trace: RunTrace, deadline: Optional[int] = None,
              validity_for_faulty: bool = False,
              termination_for_faulty: bool = False) -> SpecReport:
    """Check the full EBA specification on a trace and return a report."""
    decisions = decision_table(trace)
    return SpecReport(
        trace_summary=trace.summary(),
        unique_decision=check_unique_decision(trace, decisions=decisions),
        agreement=check_agreement(trace, decisions=decisions),
        validity=check_validity(trace, include_faulty=validity_for_faulty,
                                decisions=decisions),
        termination=check_termination(trace, deadline=deadline,
                                      include_faulty=termination_for_faulty,
                                      decisions=decisions),
    )
