"""Experiment E9 — crash failures versus sending omissions (ablation).

The paper motivates its 0-chain machinery by contrasting the two failure
models: with *crash* failures an agent can only hear about a 0 via what is in
effect a 0-chain, so the classical 0-biased rule "decide 0 as soon as you hear
about a 0" is a correct (and optimal) EBA protocol [Castañeda et al.]; with
*sending omissions* the introduction's counterexample shows that the same rule
breaks Agreement, and the chain-based ``P0`` discipline is needed.

This experiment makes that contrast concrete:

* under the crash model, the naive 0-biased baseline satisfies the EBA
  specification on every tested run and is never later than ``P_min``;
* under the omissions model, the same baseline violates Agreement (E6), while
  ``P_min`` / ``P_basic`` / ``P_opt`` remain correct under both models (crash
  patterns are a special case of omission patterns).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..analysis.dominance import compare_traces
from ..api import StoreLike, Sweep
from ..failures.adversaries import crash_staircase_adversary
from ..failures.models import CrashModel
from ..protocols.base import ActionProtocol
from ..protocols.baselines import NaiveZeroBiasedProtocol
from ..protocols.pbasic import BasicProtocol
from ..protocols.pmin import MinProtocol
from ..reporting.tables import format_table
from ..simulation.trace import Scenario
from ..workloads.preferences import random_preferences
from ..workloads.scenarios import intro_counterexample


@dataclass(frozen=True)
class CrashComparisonRow:
    """Spec conformance and decision timing of one protocol under one failure model."""

    protocol: str
    failure_model: str
    n: int
    t: int
    runs: int
    spec_violations: int
    worst_decision_round: int
    never_later_than_pmin: bool

    def as_row(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "failure model": self.failure_model,
            "n": self.n,
            "t": self.t,
            "runs": self.runs,
            "spec violations": self.spec_violations,
            "worst decision round": self.worst_decision_round,
            "never later than P_min": self.never_later_than_pmin,
        }


def crash_workload(n: int, t: int, count: int = 20, seed: int = 17,
                   horizon: Optional[int] = None) -> List[Scenario]:
    """Random crash adversaries plus the staircase worst case, with random preferences."""
    if horizon is None:
        horizon = t + 3
    model = CrashModel(n=n, t=t)
    rng = random.Random(seed)
    preferences = random_preferences(n, count + 1, seed=seed + 1)
    scenarios: List[Scenario] = []
    for index in range(count):
        scenarios.append((preferences[index], model.sample(rng, horizon)))
    scenarios.append((preferences[count], crash_staircase_adversary(n, t, horizon)))
    return scenarios


def omission_workload(n: int, t: int) -> List[Scenario]:
    """The omission scenario that separates the models: the introduction's counterexample."""
    return [intro_counterexample(n=n, t=t)]


def measure_model(n: int, t: int, scenarios: Sequence[Scenario], model_label: str,
                  protocols: Optional[Sequence[ActionProtocol]] = None,
                  store: StoreLike = None) -> List[CrashComparisonRow]:
    """Check every protocol against the EBA specification over ``scenarios``."""
    if protocols is None:
        protocols = [NaiveZeroBiasedProtocol(t), MinProtocol(t), BasicProtocol(t)]
    reference = MinProtocol(t)
    results = Sweep.of(*protocols).on(scenarios, n=n).run(store=store)
    # The baseline column is always MinProtocol(t): reuse its traces from the
    # sweep only when the caller's protocol really is that configuration.
    if any(isinstance(p, MinProtocol) and p.t == t and p.name == reference.name
           for p in protocols):
        reference_traces = results[reference.name]
    else:
        reference_traces = Sweep.of(reference).on(scenarios, n=n).run(
            store=store)[reference.name]
    violation_counts = results.spec_violations()
    rows: List[CrashComparisonRow] = []
    for protocol in protocols:
        traces = results[protocol.name]
        violations = violation_counts[protocol.name]
        worst = 0
        for trace in traces:
            last = trace.last_decision_round(nonfaulty_only=True)
            if last is not None:
                worst = max(worst, last)
        comparison = compare_traces(traces, reference_traces)
        rows.append(CrashComparisonRow(
            protocol=protocol.name,
            failure_model=model_label,
            n=n,
            t=t,
            runs=len(scenarios),
            spec_violations=violations,
            worst_decision_round=worst,
            never_later_than_pmin=comparison.first_dominates,
        ))
    return rows


def measure(n: int = 6, t: int = 2, count: int = 20, seed: int = 17,
            store: StoreLike = None) -> List[CrashComparisonRow]:
    """The full E9 comparison: crash workload and the separating omission scenario."""
    rows = measure_model(n, t, crash_workload(n, t, count=count, seed=seed), f"Crash({t})",
                         store=store)
    rows.extend(measure_model(n, t, omission_workload(n, t), f"SO({t}) counterexample",
                              store=store))
    return rows


def report(n: int = 6, t: int = 2, count: int = 20, seed: int = 17,
           store: StoreLike = None) -> str:
    """Render the crash-vs-omissions comparison as a table."""
    rows = measure(n=n, t=t, count=count, seed=seed, store=store)
    table = format_table(
        [row.as_row() for row in rows],
        title=f"E9 — crash failures vs sending omissions (n={n}, t={t})",
    )
    notes = [
        "",
        "Paper (introduction / Section 6): with crash failures a 0 can only be learned via",
        "a 0-chain, so the naive hear-about-0 rule is correct and fast; with sending",
        "omissions it violates Agreement, which is why P0 insists on 0-chains.",
    ]
    return table + "\n" + "\n".join(notes)
