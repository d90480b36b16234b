"""Experiment E2 — failure-free decision rounds (Proposition 8.2).

Proposition 8.2: in a failure-free run,

(a) if at least one agent prefers 0, all agents decide by round 2 with
    ``P_min``, ``P_basic``, and the FIP;
(b) if every agent prefers 1, all agents decide by round ``t + 2`` with
    ``P_min`` and by round 2 with ``P_basic`` and the FIP.

The experiment simulates the failure-free scenarios for a sweep of ``(n, t)``
and records the round by which the *last* agent decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import StoreLike, Sweep
from ..protocols.base import ActionProtocol
from ..protocols.pbasic import BasicProtocol
from ..protocols.pmin import MinProtocol
from ..protocols.popt import OptimalFipProtocol
from ..reporting.tables import format_table
from ..workloads.scenarios import failure_free_scenarios


@dataclass(frozen=True)
class DecisionRoundMeasurement:
    """Last decision round of one protocol on one failure-free scenario."""

    protocol: str
    n: int
    t: int
    scenario: str
    last_decision_round: int
    decided_value: int
    paper_round: int
    matches_paper: bool

    def as_row(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "n": self.n,
            "t": self.t,
            "scenario": self.scenario,
            "all decided by round": self.last_decision_round,
            "value": self.decided_value,
            "paper round": self.paper_round,
            "matches": self.matches_paper,
        }


def paper_decision_round(protocol_name: str, t: int, scenario: str) -> int:
    """The exact round implied by Proposition 8.2 for the given protocol and scenario.

    Proposition 8.2 states "by round 2" / "by round ``t + 2``" bounds; for the
    deterministic failure-free scenarios used here the bounds are attained
    exactly, except in the all-zeros run where every agent already decides in
    round 1 (still within the paper's bound).
    """
    if scenario == "all agents prefer 0":
        return 1
    if scenario == "all agents prefer 1" and protocol_name == "P_min":
        return t + 2
    return 2


def measure_decision_rounds(n: int, t: int,
                            protocols: Optional[Sequence[ActionProtocol]] = None,
                            store: StoreLike = None,
                            ) -> List[DecisionRoundMeasurement]:
    """Run the failure-free scenarios and record when the last agent decides."""
    if protocols is None:
        protocols = [MinProtocol(t), BasicProtocol(t), OptimalFipProtocol(t)]
    labelled = failure_free_scenarios(n)
    results = Sweep.of(*protocols).on([scenario for _, scenario in labelled], n=n).run(store=store)
    measurements: List[DecisionRoundMeasurement] = []
    for index, (label, _scenario) in enumerate(labelled):
        for protocol in protocols:
            trace = results.trace(protocol.name, index)
            last_round = trace.last_decision_round()
            value = trace.decision_value(0)
            expected = paper_decision_round(protocol.name, t, label)
            measurements.append(DecisionRoundMeasurement(
                protocol=protocol.name,
                n=n,
                t=t,
                scenario=label,
                last_decision_round=last_round if last_round is not None else -1,
                decided_value=value if value is not None else -1,
                paper_round=expected,
                matches_paper=last_round == expected,
            ))
    return measurements


def sweep_decision_rounds(settings: Sequence[Tuple[int, int]],
                          store: StoreLike = None,
                          ) -> List[DecisionRoundMeasurement]:
    """Measure failure-free decision rounds for several ``(n, t)`` settings."""
    results: List[DecisionRoundMeasurement] = []
    for n, t in settings:
        results.extend(measure_decision_rounds(n, t, store=store))
    return results


def report(settings: Sequence[Tuple[int, int]] = ((5, 1), (8, 3), (12, 4)),
           store: StoreLike = None) -> str:
    """Render the Proposition 8.2 comparison as a table."""
    measurements = sweep_decision_rounds(settings, store=store)
    return format_table(
        [m.as_row() for m in measurements],
        title="E2 / Proposition 8.2 — failure-free decision rounds",
    )
