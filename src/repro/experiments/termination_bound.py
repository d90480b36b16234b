"""Experiment E5 — the termination bound of Proposition 6.1.

Proposition 6.1: every implementation of ``P0`` terminates after at most
``t + 1`` rounds of message exchange — every agent decides by round ``t + 2``
— and Validity holds even for faulty agents.  ``P_opt`` (an implementation of
``P1``) satisfies the same bound (Proposition 7.3).

The experiment measures the worst (latest) decision round of each protocol over
an adversarial workload (exhaustive for small systems, randomized plus the
structured worst cases for larger ones) and checks the full EBA specification
on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import Executor, StoreLike, Sweep
from ..failures.models import SendingOmissionModel
from ..protocols.base import ActionProtocol
from ..protocols.pbasic import BasicProtocol
from ..protocols.pmin import MinProtocol
from ..protocols.popt import OptimalFipProtocol
from ..reporting.tables import format_table
from ..simulation.trace import Scenario
from ..workloads.preferences import enumerate_preferences
from ..workloads.scenarios import hidden_chain_scenario, random_scenarios


@dataclass(frozen=True)
class TerminationMeasurement:
    """Worst-case decision timing of one protocol over a workload."""

    protocol: str
    n: int
    t: int
    runs: int
    worst_decision_round: int
    paper_bound: int
    within_bound: bool
    spec_violations: int

    def as_row(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "n": self.n,
            "t": self.t,
            "runs": self.runs,
            "worst decision round": self.worst_decision_round,
            "paper bound (t+2)": self.paper_bound,
            "within bound": self.within_bound,
            "spec violations": self.spec_violations,
        }


def exhaustive_workload(n: int, t: int, horizon: Optional[int] = None) -> List[Scenario]:
    """Every (preference vector, SO(t) pattern) pair for a small system."""
    if horizon is None:
        horizon = t + 2
    model = SendingOmissionModel(n=n, t=t)
    scenarios: List[Scenario] = []
    for pattern in model.enumerate(horizon):
        for preferences in enumerate_preferences(n):
            scenarios.append((preferences, pattern))
    return scenarios


def symmetry_reduced_workload(n: int, t: int,
                              horizon: Optional[int] = None,
                              ) -> Tuple[List[Scenario], List[int]]:
    """The exhaustive ``SO(t)`` workload, reduced by agent-permutation symmetry.

    One scenario per (canonical pattern-orbit representative, preference
    vector), each annotated with its orbit size.  Because every preference
    vector is swept, each reduced scenario's run is an agent-relabelling of
    ``size`` full-enumeration runs, so *agent-symmetric* aggregates — run
    totals, specification-violation counts, worst decision rounds — computed
    with the returned weights match :func:`exhaustive_workload` exactly while
    simulating roughly ``1/n!`` of the runs (pass both to
    :func:`measure_termination`).
    """
    if horizon is None:
        horizon = t + 2
    model = SendingOmissionModel(n=n, t=t)
    scenarios: List[Scenario] = []
    weights: List[int] = []
    for orbit in model.enumerate_orbits(horizon):
        for preferences in enumerate_preferences(n):
            scenarios.append((preferences, orbit.representative))
            weights.append(orbit.size)
    return scenarios, weights


def adversarial_workload(n: int, t: int, random_count: int = 30, seed: int = 3) -> List[Scenario]:
    """Random ``SO(t)`` adversaries plus the structured hidden-chain worst cases."""
    scenarios = random_scenarios(n, t, count=random_count, seed=seed)
    for length in range(1, t + 1):
        scenarios.append(hidden_chain_scenario(n, chain_length=length))
    return scenarios


def measure_termination(n: int, t: int, scenarios: Sequence[Scenario],
                        protocols: Optional[Sequence[ActionProtocol]] = None,
                        executor: Optional[Executor] = None,
                        store: StoreLike = None,
                        weights: Optional[Sequence[int]] = None,
                        ) -> List[TerminationMeasurement]:
    """Worst decision round and specification violations of each protocol over ``scenarios``.

    ``weights`` (one multiplicity per scenario, from
    :func:`symmetry_reduced_workload`) makes the reported ``runs`` and
    ``spec_violations`` counts orbit-weighted, so a symmetry-reduced workload
    reports the exact counts of the full enumeration it stands for.
    """
    if protocols is None:
        protocols = [MinProtocol(t), BasicProtocol(t), OptimalFipProtocol(t)]
    if weights is not None and len(weights) != len(scenarios):
        raise ValueError(f"{len(weights)} weights for {len(scenarios)} scenarios")
    results = Sweep.of(*protocols).on(scenarios, n=n).run(executor, store=store)
    reports = results.check_eba(deadline=t + 2, validity_for_faulty=True)
    total_runs = len(scenarios) if weights is None else sum(weights)
    measurements: List[TerminationMeasurement] = []
    for protocol in protocols:
        violations = 0
        for index, report in enumerate(reports[protocol.name]):
            if not report.ok:
                violations += 1 if weights is None else weights[index]
        worst = 0
        for trace in results[protocol.name]:
            last = trace.last_decision_round(nonfaulty_only=False)
            if last is not None:
                worst = max(worst, last)
        measurements.append(TerminationMeasurement(
            protocol=protocol.name,
            n=n,
            t=t,
            runs=total_runs,
            worst_decision_round=worst,
            paper_bound=t + 2,
            within_bound=worst <= t + 2,
            spec_violations=violations,
        ))
    return measurements


def report(n: int = 6, t: int = 2, random_count: int = 30, seed: int = 3,
           executor: Optional[Executor] = None,
           store: StoreLike = None) -> str:
    """Render the termination-bound experiment as a table."""
    scenarios = adversarial_workload(n, t, random_count=random_count, seed=seed)
    measurements = measure_termination(n, t, scenarios, executor=executor, store=store)
    table = format_table(
        [m.as_row() for m in measurements],
        title=f"E5 / Proposition 6.1 — worst-case decision round (n={n}, t={t})",
    )
    return table + "\n\nPaper: all agents decide by round t + 2 and every run satisfies EBA."
