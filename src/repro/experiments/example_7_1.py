"""Experiment E3 — Example 7.1: the full-information advantage under heavy failures.

The paper's Example 7.1: ``n = 20``, ``t = 10``, agents 1–10 are faulty and
never send a message, and every agent prefers 1.  With ``P_min`` or ``P_basic``
the nonfaulty agents cannot rule out a hidden 0-chain and wait until round
``t + 2 = 12``; with the full-information protocol it becomes common knowledge
after two rounds who the faulty agents are, so everyone decides 1 in round 3.

The experiment reproduces the example at its original size (``n=20, t=10``;
this is slow in pure Python because every full-information message carries an
``O(n² t)``-label graph) and at scaled-down sizes that keep the same shape,
and sweeps the number of silent faulty agents: the common-knowledge rule only
fires once all ``t`` faulty agents have exposed themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..api import StoreLike, Sweep
from ..protocols.base import ActionProtocol
from ..protocols.pbasic import BasicProtocol
from ..protocols.pmin import MinProtocol
from ..protocols.popt import OptimalFipProtocol
from ..reporting.tables import format_table
from ..simulation.trace import RunTrace
from ..workloads.scenarios import example_7_1, silent_fault_sweep


@dataclass(frozen=True)
class ExampleMeasurement:
    """Decision timing of one protocol on an Example 7.1-style scenario."""

    protocol: str
    n: int
    t: int
    silent_faulty: int
    nonfaulty_decide_by_round: int
    decided_value: int
    paper_round: Optional[int]

    def as_row(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "n": self.n,
            "t": self.t,
            "silent faulty": self.silent_faulty,
            "nonfaulty decide by": self.nonfaulty_decide_by_round,
            "value": self.decided_value,
            "paper round": self.paper_round,
        }


def paper_round_for(protocol_name: str, t: int, silent_faulty: int) -> Optional[int]:
    """The paper's prediction for the last nonfaulty decision round.

    Example 7.1 covers the case ``silent_faulty = t``: round 3 for the FIP,
    ``t + 2`` for ``P_min`` and ``P_basic``.  ``P_min`` also waits ``t + 2``
    rounds for any smaller number of silent agents (no 0-chain ever appears, so
    its deadline is the only exit).  For the other protocols with fewer silent
    agents the paper makes no claim, so the prediction is ``None``: ``P_basic``
    decides once enough ``(init, 1)`` heartbeats arrive, and the FIP decides as
    soon as it can rule out a hidden 0-chain.
    """
    if protocol_name == "P_min":
        return t + 2
    if silent_faulty == t:
        return t + 2 if protocol_name == "P_basic" else 3
    return None


def _measurement(trace: RunTrace, n: int, t: int, silent: int) -> ExampleMeasurement:
    """Summarise one trace as an :class:`ExampleMeasurement`."""
    last = trace.last_decision_round(nonfaulty_only=True)
    values = {trace.decision_value(agent) for agent in trace.nonfaulty}
    return ExampleMeasurement(
        protocol=trace.protocol_name,
        n=n,
        t=t,
        silent_faulty=silent,
        nonfaulty_decide_by_round=last if last is not None else -1,
        decided_value=values.pop() if len(values) == 1 else -1,
        paper_round=paper_round_for(trace.protocol_name, t, silent),
    )


def measure_example(n: int = 20, t: int = 10,
                    protocols: Optional[Sequence[ActionProtocol]] = None,
                    store: StoreLike = None) -> List[ExampleMeasurement]:
    """Reproduce Example 7.1 for the given system size."""
    if protocols is None:
        protocols = [MinProtocol(t), BasicProtocol(t), OptimalFipProtocol(t)]
    results = Sweep.of(*protocols).on([example_7_1(n=n, t=t)], n=n).run(store=store)
    return [_measurement(results.trace(protocol.name), n, t, silent=t)
            for protocol in protocols]


def sweep_silent_faulty(n: int, t: int,
                        protocols: Optional[Sequence[ActionProtocol]] = None,
                        store: StoreLike = None) -> List[ExampleMeasurement]:
    """Vary the number of silent faulty agents from 0 to ``t`` (all preferences 1)."""
    if protocols is None:
        protocols = [MinProtocol(t), BasicProtocol(t), OptimalFipProtocol(t)]
    labelled = silent_fault_sweep(n, t)
    results = Sweep.of(*protocols).on([scenario for _, scenario in labelled], n=n).run(store=store)
    return [
        _measurement(results.trace(protocol.name, index), n, t, silent=silent)
        for index, (silent, _scenario) in enumerate(labelled)
        for protocol in protocols
    ]


def report(n: int = 10, t: int = 5, include_sweep: bool = True,
           store: StoreLike = None) -> str:
    """Render the Example 7.1 reproduction (scaled size by default) as tables."""
    main = format_table(
        [m.as_row() for m in measure_example(n=n, t=t, store=store)],
        title=f"E3 / Example 7.1 — {t} silent faulty agents, all prefer 1 (n={n}, t={t})",
    )
    if not include_sweep:
        return main
    sweep = format_table(
        [m.as_row() for m in sweep_silent_faulty(n, t, store=store)],
        title=f"E3 sweep — varying the number of silent faulty agents (n={n}, t={t})",
    )
    return main + "\n\n" + sweep
