"""Experiment E6 — the introduction's counterexample to naive 0-biased protocols.

The paper's introduction argues that, under sending-omission failures, no EBA
protocol can decide 0 as soon as it merely *hears about* a 0: a faulty agent
with initial preference 0 can stay silent until the round in which the
remaining agents must decide 1 and then reveal its preference to a single
agent, which splits the nonfaulty decisions.  The fix is to decide 0 only on a
*0-chain* — which is exactly what ``P_min`` / ``P_basic`` / ``P_opt`` do.

The experiment runs the counterexample scenario against the naive 0-biased
baseline (which must violate Agreement) and against the paper's protocols
(which must not), for a sweep of system sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import StoreLike, Sweep
from ..protocols.base import ActionProtocol
from ..protocols.baselines import NaiveZeroBiasedProtocol
from ..protocols.pbasic import BasicProtocol
from ..protocols.pmin import MinProtocol
from ..protocols.popt import OptimalFipProtocol
from ..reporting.tables import format_table
from ..workloads.scenarios import intro_counterexample


@dataclass(frozen=True)
class AgreementMeasurement:
    """Outcome of one protocol on the introduction's counterexample scenario."""

    protocol: str
    n: int
    t: int
    agreement_holds: bool
    nonfaulty_values: Tuple[int, ...]
    expected_to_break: bool

    def as_row(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "n": self.n,
            "t": self.t,
            "agreement holds": self.agreement_holds,
            "nonfaulty decisions": "/".join(str(v) for v in self.nonfaulty_values),
            "paper expectation": "violates Agreement" if self.expected_to_break else "satisfies EBA",
        }


def measure_agreement(n: int = 4, t: int = 1,
                      protocols: Optional[Sequence[ActionProtocol]] = None,
                      store: StoreLike = None) -> List[AgreementMeasurement]:
    """Run the counterexample scenario against the naive baseline and the paper's protocols."""
    if protocols is None:
        protocols = [NaiveZeroBiasedProtocol(t), MinProtocol(t), BasicProtocol(t),
                     OptimalFipProtocol(t)]
    results = Sweep.of(*protocols).on([intro_counterexample(n=n, t=t)], n=n).run(store=store)
    reports = results.check_eba()
    measurements: List[AgreementMeasurement] = []
    for protocol in protocols:
        trace = results.trace(protocol.name)
        report_ = reports[protocol.name][0]
        values = tuple(
            trace.decision_value(agent) for agent in sorted(trace.nonfaulty)
            if trace.decision_value(agent) is not None
        )
        measurements.append(AgreementMeasurement(
            protocol=protocol.name,
            n=n,
            t=t,
            agreement_holds=not report_.agreement,
            nonfaulty_values=values,
            expected_to_break=isinstance(protocol, NaiveZeroBiasedProtocol),
        ))
    return measurements


def sweep(sizes: Sequence[Tuple[int, int]] = ((3, 1), (4, 1), (6, 2), (8, 3)),
          store: StoreLike = None) -> List[AgreementMeasurement]:
    """Run the counterexample across several system sizes."""
    results: List[AgreementMeasurement] = []
    for n, t in sizes:
        results.extend(measure_agreement(n=n, t=t, store=store))
    return results


def report(sizes: Sequence[Tuple[int, int]] = ((3, 1), (4, 1), (6, 2)),
           store: StoreLike = None) -> str:
    """Render the agreement-violation experiment as a table."""
    measurements = sweep(sizes, store=store)
    table = format_table(
        [m.as_row() for m in measurements],
        title="E6 — the introduction's counterexample: hear-about-0 vs 0-chains",
    )
    notes = [
        "",
        "Paper (introduction): deciding 0 upon hearing about a 0 cannot satisfy EBA under",
        "omission failures; deciding 0 only via a 0-chain (P_min / P_basic / P_opt) can.",
    ]
    return table + "\n" + "\n".join(notes)
