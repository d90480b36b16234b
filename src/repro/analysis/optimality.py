"""Empirical optimality probing: one-step deviations from a protocol.

The paper's optimality results (Theorem 6.3, Corollaries 6.7 and 7.8) say that
no EBA decision protocol for the same information exchange *strictly dominates*
``P_min`` / ``P_basic`` / the FIP implementation of ``P1``.  A simulation cannot
quantify over every protocol, but it can probe the statement where it bites:
take the protocol's decision table on the local states that actually arise,
flip one entry at a time towards an *earlier* decision, and check what happens.
Optimality predicts that every such one-step "speed-up" either

* violates the EBA specification on some run of the context, or
* fails to dominate the original protocol (it is later somewhere else).

:func:`probe_optimality` runs exactly that experiment over an exhaustively
enumerated context (small ``n``), reporting each deviation and its fate.  This
is the strongest optimality evidence short of the paper's proof: it covers
*every* protocol at Hamming distance one from the candidate on its reachable
states, not just the handful of named baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.types import Action, DECIDE_0, DECIDE_1, NOOP
from ..exchange.base import LocalState
from ..protocols.base import ActionProtocol
from ..simulation.batch import BatchSimulator
from ..simulation.trace import RunTrace, Scenario
from ..spec.eba import check_eba
from ..systems.contexts import EBAContext
from ..workloads.preferences import enumerate_preferences
from .dominance import compare_traces


class _DeviatingProtocol(ActionProtocol):
    """A protocol equal to a base protocol except at one local state."""

    state_type = LocalState

    def __init__(self, base: ActionProtocol, state: LocalState, action: Action) -> None:
        super().__init__(base.t)
        self.base = base
        self.deviation_state = state
        self.deviation_action = action
        self.name = f"{base.name}+dev"

    def make_exchange(self, n: int):
        return self.base.make_exchange(n)

    def act(self, state: LocalState) -> Action:
        if state == self.deviation_state:
            return self.deviation_action
        return self.base.act(state)


@dataclass(frozen=True)
class DeviationOutcome:
    """The fate of one one-step deviation."""

    state: LocalState
    original_action: Action
    deviating_action: Action
    violates_spec: bool
    strictly_dominates: bool
    violating_runs: int

    @property
    def refutes_optimality(self) -> bool:
        """A deviation refutes optimality only if it is correct *and* strictly dominates."""
        return (not self.violates_spec) and self.strictly_dominates


@dataclass
class OptimalityProbeReport:
    """Aggregate result of probing every one-step deviation of a protocol."""

    protocol_name: str
    context_name: str
    scenarios: int
    deviations_tried: int = 0
    outcomes: List[DeviationOutcome] = field(default_factory=list)

    @property
    def consistent_with_optimality(self) -> bool:
        """Whether no tried deviation was both correct and strictly dominating."""
        return not any(outcome.refutes_optimality for outcome in self.outcomes)

    def counterexamples(self) -> List[DeviationOutcome]:
        """Deviations that would refute optimality (empty if the probe is consistent)."""
        return [outcome for outcome in self.outcomes if outcome.refutes_optimality]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "consistent" if self.consistent_with_optimality else "REFUTED"
        return (f"OptimalityProbeReport({self.protocol_name} in {self.context_name}: "
                f"{self.deviations_tried} deviations over {self.scenarios} scenarios, {status})")


def context_scenarios(context: EBAContext) -> List[Scenario]:
    """Every (preference vector, failure pattern) scenario of an enumerable context."""
    patterns = list(context.patterns())
    return [
        (preferences, pattern)
        for pattern in patterns
        for preferences in enumerate_preferences(context.n)
    ]


def reachable_states(protocol: ActionProtocol, n: int, scenarios: Iterable[Scenario],
                     horizon: int) -> List[LocalState]:
    """The undecided local states that arise when running ``protocol`` over ``scenarios``.

    Only states at times strictly below ``horizon`` are returned (a deviation at
    the final time cannot make any decision earlier).
    """
    traces = BatchSimulator(protocol, n).simulate_scenarios(list(scenarios), horizon)
    return _undecided_states(traces, horizon)


def _undecided_states(traces: Sequence[RunTrace], horizon: int) -> List[LocalState]:
    """The distinct undecided states of ``traces`` at times below ``horizon``, in run order."""
    seen: Dict[LocalState, None] = {}
    for trace in traces:
        for time in range(horizon):
            for state in trace.states_at(time):
                if state.decided is None:
                    seen.setdefault(state, None)
    return list(seen)


def earlier_decision_candidates(action: Action) -> Tuple[Action, ...]:
    """The alternative actions that could only make a protocol decide earlier.

    A ``noop`` can be replaced by either decision; an existing decision can only
    be flipped to the other value (which keeps the timing but changes the value,
    still a legitimate competitor protocol).
    """
    if action == NOOP:
        return (DECIDE_0, DECIDE_1)
    if action == DECIDE_0:
        return (DECIDE_1,)
    return (DECIDE_0,)


def probe_optimality(protocol: ActionProtocol, context: EBAContext,
                     scenarios: Optional[List[Scenario]] = None,
                     max_deviations: Optional[int] = None) -> OptimalityProbeReport:
    """Try every one-step deviation of ``protocol`` over the context's scenarios.

    Parameters
    ----------
    protocol:
        The candidate optimal protocol (e.g. ``MinProtocol(t)``).
    context:
        An enumerable EBA context (``gamma_min`` / ``gamma_basic`` with small ``n``).
    scenarios:
        The workload of corresponding runs; defaults to every scenario of the
        context (exhaustive).
    max_deviations:
        Optional cap on the number of deviations tried (useful for quick runs).
    """
    if scenarios is None:
        scenarios = context_scenarios(context)
    horizon = context.horizon
    n = context.n
    base_traces = BatchSimulator(protocol, n).simulate_scenarios(scenarios, horizon)
    report = OptimalityProbeReport(
        protocol_name=protocol.name,
        context_name=context.name,
        scenarios=len(scenarios),
    )
    for state in _undecided_states(base_traces, horizon):
        original_action = protocol.act(state)
        for candidate_action in earlier_decision_candidates(original_action):
            if max_deviations is not None and report.deviations_tried >= max_deviations:
                return report
            deviant = _DeviatingProtocol(protocol, state, candidate_action)
            deviant_traces = BatchSimulator(deviant, n).simulate_scenarios(scenarios, horizon)
            violating_runs = sum(not check_eba(trace).ok for trace in deviant_traces)
            # A deviation that breaks the spec is not compared: it cannot refute.
            strictly_dominates = not violating_runs and compare_traces(
                deviant_traces, base_traces).first_strictly_dominates
            outcome = DeviationOutcome(
                state=state,
                original_action=original_action,
                deviating_action=candidate_action,
                violates_spec=violating_runs > 0,
                strictly_dominates=strictly_dominates,
                violating_runs=violating_runs,
            )
            report.deviations_tried += 1
            report.outcomes.append(outcome)
    return report
