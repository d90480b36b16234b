"""Dominance comparisons between action protocols (Section 5's ``≤_γ`` relation).

An action protocol ``P`` *dominates* ``P'`` with respect to a context if, in
every pair of corresponding runs (same preferences, same failure pattern),
every agent that is nonfaulty in ``P``'s run decides under ``P`` no later than
it does under ``P'``.  ``P`` *strictly* dominates ``P'`` if it dominates and is
not dominated back.  An EBA protocol is *optimal* if no EBA protocol strictly
dominates it.

True optimality quantifies over all protocols, which the paper establishes by
proof; what this module checks empirically is the decidable consequence: over
any workload of corresponding runs, the relations between the protocols we
implement come out as the theory predicts (e.g. nothing strictly dominates
``P_min`` in its context, while ``P_min`` strictly dominates the delayed
baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.types import AgentId
from ..protocols.base import ActionProtocol
from ..simulation.trace import RunTrace, Scenario

@dataclass(frozen=True)
class DominanceCounterexample:
    """A witness that one protocol decided strictly later than another for some nonfaulty agent."""

    scenario_index: int
    agent: AgentId
    earlier_protocol: str
    earlier_round: Optional[int]
    later_protocol: str
    later_round: Optional[int]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"scenario {self.scenario_index}: agent {self.agent} decides in round "
                f"{self.earlier_round} under {self.earlier_protocol} but round "
                f"{self.later_round} under {self.later_protocol}")


@dataclass
class DominanceResult:
    """The outcome of comparing two protocols over a workload of corresponding runs."""

    first_name: str
    second_name: str
    scenarios: int
    first_dominates: bool
    second_dominates: bool
    first_strictly_earlier: int
    second_strictly_earlier: int
    counterexamples_to_first: List[DominanceCounterexample] = field(default_factory=list)
    counterexamples_to_second: List[DominanceCounterexample] = field(default_factory=list)

    @property
    def first_strictly_dominates(self) -> bool:
        """Whether the first protocol dominates and is sometimes strictly earlier."""
        return self.first_dominates and not self.second_dominates

    @property
    def second_strictly_dominates(self) -> bool:
        return self.second_dominates and not self.first_dominates

    @property
    def equivalent(self) -> bool:
        """Whether the two protocols decide at identical times on every scenario."""
        return self.first_dominates and self.second_dominates

    def summary(self) -> str:
        if self.equivalent:
            verdict = "decide at identical times"
        elif self.first_strictly_dominates:
            verdict = f"{self.first_name} strictly dominates {self.second_name}"
        elif self.second_strictly_dominates:
            verdict = f"{self.second_name} strictly dominates {self.first_name}"
        else:
            verdict = "incomparable (each is sometimes strictly earlier)"
        return (f"{self.first_name} vs {self.second_name} over {self.scenarios} scenarios: "
                f"{verdict}")


def _dominates_on_pair(earlier: RunTrace, later: RunTrace, scenario_index: int,
                       ) -> Tuple[bool, int, List[DominanceCounterexample]]:
    """Check the dominance inequality for one pair of corresponding runs.

    Returns ``(dominates, strictly_earlier_count, counterexamples)`` where the
    counterexamples witness agents for which ``earlier`` decides strictly later.
    """
    dominates = True
    strictly_earlier = 0
    counterexamples: List[DominanceCounterexample] = []
    for agent in sorted(earlier.nonfaulty):
        round_a = earlier.decision_round(agent)
        round_b = later.decision_round(agent)
        if round_a is None:
            # The candidate dominator never decides: it cannot dominate unless the
            # other protocol also never decides for this agent.
            if round_b is not None:
                dominates = False
                counterexamples.append(DominanceCounterexample(
                    scenario_index, agent, later.protocol_name, round_b,
                    earlier.protocol_name, round_a))
            continue
        if round_b is None or round_a < round_b:
            strictly_earlier += 1
            continue
        if round_a > round_b:
            dominates = False
            counterexamples.append(DominanceCounterexample(
                scenario_index, agent, later.protocol_name, round_b,
                earlier.protocol_name, round_a))
    return dominates, strictly_earlier, counterexamples


def compare_traces(first: Sequence[RunTrace], second: Sequence[RunTrace]) -> DominanceResult:
    """Compare two equally long sequences of corresponding traces."""
    if len(first) != len(second):
        raise ValueError("corresponding trace sequences must have equal length")
    first_dominates = True
    second_dominates = True
    first_strict = 0
    second_strict = 0
    counter_first: List[DominanceCounterexample] = []
    counter_second: List[DominanceCounterexample] = []
    for index, (trace_a, trace_b) in enumerate(zip(first, second)):
        if (trace_a.preferences != trace_b.preferences
                or trace_a.pattern != trace_b.pattern):
            raise ValueError(f"scenario {index}: traces are not corresponding runs")
        ok_a, strict_a, ce_a = _dominates_on_pair(trace_a, trace_b, index)
        ok_b, strict_b, ce_b = _dominates_on_pair(trace_b, trace_a, index)
        first_dominates &= ok_a
        second_dominates &= ok_b
        first_strict += strict_a
        second_strict += strict_b
        counter_first.extend(ce_a)
        counter_second.extend(ce_b)
    name_a = first[0].protocol_name if first else "first"
    name_b = second[0].protocol_name if second else "second"
    return DominanceResult(
        first_name=name_a,
        second_name=name_b,
        scenarios=len(first),
        first_dominates=first_dominates,
        second_dominates=second_dominates,
        first_strictly_earlier=first_strict,
        second_strictly_earlier=second_strict,
        counterexamples_to_first=counter_first,
        counterexamples_to_second=counter_second,
    )


def compare_protocols(first: ActionProtocol, second: ActionProtocol, n: int,
                      scenarios: Iterable[Scenario],
                      horizon: Optional[int] = None) -> DominanceResult:
    """Run both protocols over the scenarios and compare decision times.

    Note that the two protocols may use *different* information-exchange
    protocols; the comparison is then between ``(E_1, P_1)`` and ``(E_2, P_2)``
    pairs — this is how Section 8 compares the minimal, basic, and
    full-information settings, and is coarser than the paper's
    per-information-exchange optimality notion.
    """
    from ..api import run_sweep
    results = run_sweep([first, second], scenarios, n=n, horizon=horizon)
    return results.compare(first.name, second.name)


def pairwise_comparison(protocols: Sequence[ActionProtocol], n: int,
                        scenarios: Sequence[Scenario],
                        horizon: Optional[int] = None,
                        ) -> Dict[Tuple[str, str], DominanceResult]:
    """All pairwise dominance results over a shared workload."""
    from ..api import run_sweep
    results = run_sweep(list(protocols), scenarios, n=n, horizon=horizon)
    return results.pairwise()
