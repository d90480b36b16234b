"""Experiment E4 — dominance relations between the implemented protocols.

Corollary 6.7 and Corollary 7.8 state that ``P_min``, ``P_basic``, and the
full-information protocol are *optimal* with respect to their own contexts: no
EBA protocol (for the same information exchange) strictly dominates them.
Optimality quantifies over all protocols, which only the proofs can cover; the
empirically checkable consequences exercised here are:

* no protocol in our library strictly dominates ``P_min``, ``P_basic``, or
  ``P_opt`` over any workload of corresponding runs;
* ``P_min`` strictly dominates the deliberately weakened ``P_min_delayed``
  baseline (so the comparison machinery can tell protocols apart);
* the cross-exchange comparison of Section 8: the full-information protocol is
  never later than ``P_basic`` or ``P_min``, and is strictly earlier exactly in
  the heavy-failure scenarios of Example 7.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.dominance import DominanceResult
from ..api import Executor, StoreLike, Sweep
from ..protocols.base import ActionProtocol
from ..protocols.baselines import DelayedMinProtocol
from ..protocols.pbasic import BasicProtocol
from ..protocols.pmin import MinProtocol
from ..protocols.popt import OptimalFipProtocol
from ..reporting.tables import format_table
from ..simulation.trace import Scenario
from ..workloads.scenarios import example_7_1, failure_free_scenarios, random_scenarios


@dataclass(frozen=True)
class DominanceRow:
    """A rendered pairwise dominance verdict."""

    first: str
    second: str
    scenarios: int
    verdict: str
    first_strictly_earlier: int
    second_strictly_earlier: int

    def as_row(self) -> Dict[str, object]:
        return {
            "first": self.first,
            "second": self.second,
            "scenarios": self.scenarios,
            "verdict": self.verdict,
            "#first earlier": self.first_strictly_earlier,
            "#second earlier": self.second_strictly_earlier,
        }


def default_workload(n: int, t: int, random_count: int = 20, seed: int = 7) -> List[Scenario]:
    """The mixed workload used by the dominance study.

    Failure-free runs, the Example 7.1 scenario, and a batch of random
    ``SO(t)`` adversaries with random preferences.
    """
    scenarios: List[Scenario] = [scenario for _, scenario in failure_free_scenarios(n)]
    scenarios.append(example_7_1(n=n, t=t))
    scenarios.extend(random_scenarios(n, t, count=random_count, seed=seed))
    return scenarios


def study(n: int = 6, t: int = 2, random_count: int = 20, seed: int = 7,
          protocols: Optional[Sequence[ActionProtocol]] = None,
          executor: Optional[Executor] = None,
          store: StoreLike = None) -> Dict[Tuple[str, str], DominanceResult]:
    """Run the pairwise dominance comparison over the default workload."""
    if protocols is None:
        protocols = [
            OptimalFipProtocol(t),
            BasicProtocol(t),
            MinProtocol(t),
            DelayedMinProtocol(t, delay=2),
        ]
    workload = default_workload(n, t, random_count=random_count, seed=seed)
    return Sweep.of(*protocols).on(workload, n=n).with_seed(seed).run(
        executor, store=store).pairwise()


def _verdict(result: DominanceResult) -> str:
    if result.equivalent:
        return "identical decision times"
    if result.first_strictly_dominates:
        return f"{result.first_name} strictly dominates"
    if result.second_strictly_dominates:
        return f"{result.second_name} strictly dominates"
    return "incomparable"


def rows_from_results(results: Dict[Tuple[str, str], DominanceResult]) -> List[DominanceRow]:
    """Flatten pairwise results into table rows."""
    rows: List[DominanceRow] = []
    for (first, second), result in results.items():
        rows.append(DominanceRow(
            first=first,
            second=second,
            scenarios=result.scenarios,
            verdict=_verdict(result),
            first_strictly_earlier=result.first_strictly_earlier,
            second_strictly_earlier=result.second_strictly_earlier,
        ))
    return rows


def report(n: int = 6, t: int = 2, random_count: int = 20, seed: int = 7,
           executor: Optional[Executor] = None,
           store: StoreLike = None) -> str:
    """Render the dominance study as a table."""
    results = study(n=n, t=t, random_count=random_count, seed=seed, executor=executor,
                    store=store)
    table = format_table(
        [row.as_row() for row in rows_from_results(results)],
        title=f"E4 — pairwise dominance over corresponding runs (n={n}, t={t})",
    )
    notes = [
        "",
        "Paper (Corollaries 6.7, 7.8): P_min, P_basic, and the FIP are optimal for their",
        "own information exchanges, so nothing should strictly dominate them; the",
        "delayed baseline exists to show a strict domination the machinery can detect.",
    ]
    return table + "\n" + "\n".join(notes)
