"""Experiment E11 — the safety condition of Definition 6.2 (Proposition 6.4).

Theorem 6.3 shows that every implementation of ``P0`` is optimal in a context
where ``P0`` is *safe*; Proposition 6.4 shows that ``γ_min`` and ``γ_basic``
are such contexts whenever ``n - t ≥ 2``.  This experiment checks the two
clauses of the safety condition exhaustively over the enumerated systems
generated by ``P_min`` and ``P_basic`` for small ``n``:

1. an agent that has not received a 0-chain always considers an all-ones run
   possible (so 0s can only be learned via chains), and
2. an agent that cannot rule out a 0-decision always considers possible a run
   in which it is nonfaulty and a *nonfaulty* agent is deciding 0 (with the
   nested one-round-earlier witness required by clause 2(c)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..kbp.safety import SafetyReport, check_safety
from ..reporting.tables import format_table
from .implementation_check import LIMITED, THEOREM_PARTS


@dataclass(frozen=True)
class SafetyRow:
    """Summary of one safety check."""

    protocol: str
    context: str
    n: int
    t: int
    points: int
    clause1_checks: int
    clause2_checks: int
    violations: int
    safe: bool

    def as_row(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "context": self.context,
            "n": self.n,
            "t": self.t,
            "points": self.points,
            "clause-1 checks": self.clause1_checks,
            "clause-2 checks": self.clause2_checks,
            "violations": self.violations,
            "safe": self.safe,
        }


def summarize(report: SafetyReport, n: int, t: int) -> SafetyRow:
    """Collapse a safety report into a table row."""
    return SafetyRow(
        protocol=report.protocol_name,
        context=report.context_name,
        n=n,
        t=t,
        points=report.points_checked,
        clause1_checks=report.clause1_checks,
        clause2_checks=report.clause2_checks,
        violations=len(report.violations),
        safe=report.safe,
    )


def measure(n: int = 3, t: int = 1, store=None) -> List[SafetyRow]:
    """Check the safety condition in ``γ_min`` and ``γ_basic`` and summarize."""
    rows = []
    for theorem in LIMITED:
        protocol, _, context = THEOREM_PARTS[theorem](n, t)
        rows.append(summarize(check_safety(protocol, context, store=store), n, t))
    return rows


def report(n: int = 3, t: int = 1, store=None) -> str:
    """Render the safety-condition check as a table.

    Builds and scans run in-process; ``store`` serves the system builds and
    the finished safety reports from the artifact cache (see
    :mod:`repro.store`).
    """
    rows = measure(n, t, store=store)
    table = format_table(
        [row.as_row() for row in rows],
        title=f"E11 / Proposition 6.4 — the Definition 6.2 safety condition (n={n}, t={t})",
    )
    notes = [
        "",
        "Paper: P0 is safe with respect to gamma_min and gamma_basic whenever n - t >= 2,",
        "which by Theorem 6.3 makes every implementation (P_min, P_basic) optimal there.",
    ]
    return table + "\n" + "\n".join(notes)
