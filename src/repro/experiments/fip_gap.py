"""Experiment E8 — how much does full information actually buy? (Section 8 discussion).

Section 8 observes that for failure-free runs the basic exchange already decides
as fast as the full-information exchange, and conjectures that "even in runs
with failures, ``P_basic`` may not be much worse than ``P_fip``".  This
experiment quantifies the gap: over random ``SO(t)`` adversaries (and over the
structured silent-faulty scenarios where the FIP shines), it measures the
distribution of the per-agent decision-round difference between ``P_basic`` /
``P_min`` and ``P_opt``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..api import StoreLike, Sweep
from ..protocols.base import ActionProtocol
from ..protocols.pbasic import BasicProtocol
from ..protocols.pmin import MinProtocol
from ..protocols.popt import OptimalFipProtocol
from ..reporting.tables import format_table
from ..simulation.trace import Scenario
from ..workloads.scenarios import random_scenarios, silent_fault_sweep


@dataclass(frozen=True)
class GapMeasurement:
    """Decision-round gap of one limited-information protocol versus ``P_opt``."""

    protocol: str
    n: int
    t: int
    runs: int
    agents_compared: int
    mean_gap: float
    max_gap: int
    fraction_equal: float

    def as_row(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "n": self.n,
            "t": self.t,
            "runs": self.runs,
            "agents compared": self.agents_compared,
            "mean extra rounds vs P_opt": round(self.mean_gap, 3),
            "max extra rounds": self.max_gap,
            "fraction no slower": round(self.fraction_equal, 3),
        }


def measure_gap(n: int, t: int, scenarios: Sequence[Scenario],
                protocols: Optional[Sequence[ActionProtocol]] = None,
                store: StoreLike = None) -> List[GapMeasurement]:
    """Per-agent decision-round gap between each limited protocol and ``P_opt``."""
    if protocols is None:
        protocols = [BasicProtocol(t), MinProtocol(t)]
    reference = OptimalFipProtocol(t)
    results = Sweep.of(reference, *protocols).on(scenarios, n=n).run(store=store)
    gaps: Dict[str, List[int]] = {protocol.name: [] for protocol in protocols}
    run_count = len(results)
    for index in range(len(results)):
        traces = results.corresponding(index)
        reference_trace = traces[reference.name]
        pattern = reference_trace.pattern
        for protocol in protocols:
            trace = traces[protocol.name]
            for agent in sorted(pattern.nonfaulty):
                reference_round = reference_trace.decision_round(agent)
                other_round = trace.decision_round(agent)
                if reference_round is None or other_round is None:
                    continue
                gaps[protocol.name].append(other_round - reference_round)
    measurements: List[GapMeasurement] = []
    for protocol in protocols:
        values = gaps[protocol.name]
        measurements.append(GapMeasurement(
            protocol=protocol.name,
            n=n,
            t=t,
            runs=run_count,
            agents_compared=len(values),
            mean_gap=statistics.fmean(values) if values else 0.0,
            max_gap=max(values) if values else 0,
            fraction_equal=(sum(1 for v in values if v <= 0) / len(values)) if values else 1.0,
        ))
    return measurements


def random_gap_study(n: int = 6, t: int = 2, count: int = 25, seed: int = 11,
                     omission_probability: float = 0.4,
                     store: StoreLike = None) -> List[GapMeasurement]:
    """The gap over random omission adversaries (the "typical" case of the conjecture)."""
    scenarios = random_scenarios(n, t, count=count, seed=seed,
                                 omission_probability=omission_probability)
    return measure_gap(n, t, scenarios, store=store)


def worst_case_gap_study(n: int = 8, t: int = 3,
                         store: StoreLike = None) -> List[GapMeasurement]:
    """The gap over the silent-faulty sweep (the case Example 7.1 highlights)."""
    scenarios = [scenario for _, scenario in silent_fault_sweep(n, t)]
    return measure_gap(n, t, scenarios, store=store)


def report(n: int = 6, t: int = 2, count: int = 25, seed: int = 11,
           store: StoreLike = None) -> str:
    """Render the FIP-gap study as two tables (random and worst-case workloads)."""
    random_rows = [m.as_row()
                   for m in random_gap_study(n, t, count=count, seed=seed, store=store)]
    worst_rows = [m.as_row() for m in worst_case_gap_study(n, t, store=store)]
    table_random = format_table(
        random_rows, title=f"E8 — extra decision rounds vs P_opt, random SO({t}) adversaries (n={n})")
    table_worst = format_table(
        worst_rows, title=f"E8 — extra decision rounds vs P_opt, silent-faulty sweep (n={n}, t={t})")
    notes = [
        "",
        "Paper (Section 8): for failure-free runs P_basic matches the FIP; the conjecture is",
        "that with failures P_basic is usually not much worse — the random-adversary table",
        "quantifies 'usually', and the silent-faulty sweep shows the worst case.",
    ]
    return table_random + "\n\n" + table_worst + "\n" + "\n".join(notes)
