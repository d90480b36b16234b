"""Experiment E10 — probing optimality through one-step deviations (Corollary 6.7).

The paper proves that no EBA decision protocol for the same information
exchange strictly dominates ``P_min`` (in ``γ_min``) or ``P_basic`` (in
``γ_basic``).  Simulation cannot quantify over all protocols, but it can
exhaustively try every protocol at Hamming distance one from the candidate on
its reachable local states — flipping a single "wait" into an earlier decision
or a decision into the opposite value — and verify that each such deviation
either breaks the EBA specification or fails to dominate the original.

This covers, in particular, the "decide 1 before the deadline" and "decide 0 on
a rumour" speed-ups that the paper's counterexamples are built around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.optimality import OptimalityProbeReport, probe_optimality
from ..protocols.pbasic import BasicProtocol
from ..protocols.pmin import MinProtocol
from ..reporting.tables import format_table
from ..systems.contexts import gamma_basic, gamma_min


@dataclass(frozen=True)
class ProbeRow:
    """Summary of one optimality probe."""

    protocol: str
    context: str
    n: int
    t: int
    scenarios: int
    deviations: int
    spec_breaking: int
    dominated_or_incomparable: int
    refuting: int

    def as_row(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "context": self.context,
            "n": self.n,
            "t": self.t,
            "scenarios": self.scenarios,
            "deviations tried": self.deviations,
            "break the spec": self.spec_breaking,
            "correct but not dominating": self.dominated_or_incomparable,
            "refute optimality": self.refuting,
        }


def summarize(report: OptimalityProbeReport, n: int, t: int) -> ProbeRow:
    """Collapse a probe report into one table row."""
    spec_breaking = sum(1 for outcome in report.outcomes if outcome.violates_spec)
    refuting = len(report.counterexamples())
    return ProbeRow(
        protocol=report.protocol_name,
        context=report.context_name,
        n=n,
        t=t,
        scenarios=report.scenarios,
        deviations=report.deviations_tried,
        spec_breaking=spec_breaking,
        dominated_or_incomparable=report.deviations_tried - spec_breaking - refuting,
        refuting=refuting,
    )


def probe_pmin(n: int = 3, t: int = 1,
               max_deviations: Optional[int] = None) -> OptimalityProbeReport:
    """Probe ``P_min`` in the exhaustively enumerated ``γ_min(n, t)``."""
    return probe_optimality(MinProtocol(t), gamma_min(n, t), max_deviations=max_deviations)


def probe_pbasic(n: int = 3, t: int = 1,
                 max_deviations: Optional[int] = None) -> OptimalityProbeReport:
    """Probe ``P_basic`` in the exhaustively enumerated ``γ_basic(n, t)``."""
    return probe_optimality(BasicProtocol(t), gamma_basic(n, t), max_deviations=max_deviations)


def measure(n: int = 3, t: int = 1) -> List[ProbeRow]:
    """Run both probes and summarize."""
    return [
        summarize(probe_pmin(n, t), n, t),
        summarize(probe_pbasic(n, t), n, t),
    ]


def report(n: int = 3, t: int = 1) -> str:
    """Render the optimality probe as a table.

    The probe runs in-process and caches nothing: every one-step deviation is
    a distinct throwaway protocol.
    """
    rows = measure(n, t)
    table = format_table(
        [row.as_row() for row in rows],
        title=f"E10 — one-step deviation probe of optimality (n={n}, t={t}, exhaustive SO({t}))",
    )
    notes = [
        "",
        "Paper (Corollary 6.7): P_min and P_basic are optimal for their exchanges.  Every",
        "one-step speed-up of their decision tables must therefore either violate EBA on",
        "some run or fail to dominate the original protocol; 'refute optimality' must be 0.",
    ]
    return table + "\n" + "\n".join(notes)
