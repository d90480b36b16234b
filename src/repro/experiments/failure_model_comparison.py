"""Experiment E12 — the paper's protocols across failure models (SO / RO / GO).

The paper's optimality results (Theorems 6.5 / 6.6) are proved over the
sending-omissions model ``SO(t)`` of Section 3.  The failure-model registry
(:mod:`repro.failures.models`) makes the whole pipeline parametric over the
model family, so this experiment asks the natural follow-up questions for the
receive-omission model ``RO(t)`` and the general-omission model ``GO(t)``:

1. **Behaviour** — sweep ``P_min`` / ``P_basic`` / ``P_opt`` over a workload of
   random and named adversaries of each model and report, per (model,
   protocol): Agreement/Validity/Termination violations and the worst/mean
   decision round among nonfaulty agents.
2. **Theorems** — re-run the Theorem 6.5 / 6.6 implementation checks with the
   model checker, swapping the context's failure model, and report whether the
   claims survive or where the counterexamples are.

Observed at ``n = 3, t = 1`` (and encoded in the tests): Theorem 6.5 survives
both new models — ``P_min`` still implements ``P0`` — but Theorem 6.6 does
*not*: under ``RO(1)`` and ``GO(1)`` the basic exchange gives agents enough
information that ``P0`` prescribes deciding strictly earlier than ``P_basic``
does, so ``P_basic`` stops being an implementation (it noops where the
knowledge-based program prescribes ``decide(1)``).  Intuitively: under receive
omissions an agent that fails to hear from someone learns that *it* is the
faulty one — ``SO(t)``'s ambiguity about who dropped the message disappears,
and with it the extra waiting ``P_basic`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import Executor, StoreLike, Sweep
from ..failures.models import FailureModel, make_model, model_class
from ..kbp.implementation import check_implements
from ..kbp.programs import make_p0
from ..protocols.base import ActionProtocol
from ..protocols.pbasic import BasicProtocol
from ..protocols.pmin import MinProtocol
from ..protocols.popt import OptimalFipProtocol
from ..reporting.tables import format_table
from ..simulation.trace import Scenario
from ..spec.eba import check_agreement, check_termination, check_validity
from ..systems.contexts import gamma_basic, gamma_min
from ..workloads.scenarios import (
    mixed_chain_scenario,
    partition_scenario,
    random_model_scenarios,
    silent_receiver_scenario,
)
from .crash_comparison import crash_workload

#: The models this experiment compares by default (canonical registry names).
DEFAULT_MODELS: Tuple[str, ...] = (
    "sending-omission",
    "receive-omission",
    "general-omission",
)


@dataclass(frozen=True)
class ModelBehaviourRow:
    """Spec conformance and decision timing of one protocol under one failure model."""

    model: str
    protocol: str
    n: int
    t: int
    runs: int
    agreement_violations: int
    validity_violations: int
    termination_violations: int
    worst_decision_round: int

    def as_row(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "protocol": self.protocol,
            "n": self.n,
            "t": self.t,
            "runs": self.runs,
            "agreement": self.agreement_violations,
            "validity": self.validity_violations,
            "termination": self.termination_violations,
            "worst decision round": self.worst_decision_round,
        }


@dataclass(frozen=True)
class TheoremCheckRow:
    """One implementation-theorem check under one failure model."""

    model: str
    claim: str
    context: str
    n: int
    t: int
    states_checked: int
    holds: bool
    mismatches: int

    def as_row(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "claim": self.claim,
            "context": self.context,
            "n": self.n,
            "t": self.t,
            "states checked": self.states_checked,
            "holds": self.holds,
            "counterexamples": self.mismatches,
        }


def model_workload(model: "FailureModel | str", n: int, t: int,
                   count: int = 12, seed: int = 23,
                   horizon: Optional[int] = None) -> List[Scenario]:
    """Random adversaries of the model plus its named worst cases.

    Every model gets ``count`` seeded random scenarios; on top of that the
    model's characteristic adversaries are appended — deaf agents for
    ``RO(t)``, the partition and the mixed send/receive chain for ``GO(t)``,
    the crash staircase for ``crash`` (all with exactly ``t`` faulty agents,
    so they stay admissible).
    """
    if isinstance(model, str):
        model = make_model(model, n, t)
    if horizon is None:
        horizon = t + 3
    kwargs = {"omission_probability": 0.4} if model.samples_per_edge else {}
    scenarios = random_model_scenarios(n, t, count, model=model, seed=seed,
                                       horizon=horizon, **kwargs)
    cls = type(model)
    if cls is model_class("receive-omission"):
        scenarios.append(silent_receiver_scenario(n, t, horizon=horizon))
    elif cls is model_class("general-omission"):
        scenarios.append(partition_scenario(n, t, horizon=horizon))
        scenarios.append(mixed_chain_scenario(n, t, horizon=horizon))
    elif cls is model_class("crash"):
        scenarios.extend(crash_workload(n, t, count=0, seed=seed, horizon=horizon))
    return scenarios


def measure_behaviour(n: int = 4, t: int = 1,
                      models: Sequence["FailureModel | str"] = DEFAULT_MODELS,
                      count: int = 12, seed: int = 23,
                      protocols: Optional[Sequence[ActionProtocol]] = None,
                      executor: Optional[Executor] = None,
                      store: StoreLike = None) -> List[ModelBehaviourRow]:
    """Sweep the protocols over each model's workload and score the EBA clauses.

    Runs are simulated for a fixed ``t + 4`` rounds so that a protocol that
    fails to decide under an unfamiliar model shows up as a Termination
    violation instead of hanging the sweep.
    """
    if protocols is None:
        protocols = [MinProtocol(t), BasicProtocol(t), OptimalFipProtocol(t)]
    rows: List[ModelBehaviourRow] = []
    for model in models:
        resolved = make_model(model, n, t) if isinstance(model, str) else model
        scenarios = model_workload(resolved, n, t, count=count, seed=seed)
        results = (Sweep.of(*protocols).on(scenarios, n=n)
                   .with_horizon(t + 4).run(executor, store=store))
        for protocol in protocols:
            traces = results[protocol.name]
            agreement = validity = termination = 0
            worst = 0
            for trace in traces:
                # The spec checkers return lists of violation messages.
                if check_agreement(trace):
                    agreement += 1
                if check_validity(trace):
                    validity += 1
                if check_termination(trace, deadline=t + 2):
                    termination += 1
                last = trace.last_decision_round(nonfaulty_only=True)
                if last is not None:
                    worst = max(worst, last)
            rows.append(ModelBehaviourRow(
                model=resolved.name,
                protocol=protocol.name,
                n=n,
                t=t,
                runs=len(scenarios),
                agreement_violations=agreement,
                validity_violations=validity,
                termination_violations=termination,
                worst_decision_round=worst,
            ))
    return rows


def check_theorems(model: "FailureModel | str", n: int = 3, t: int = 1,
                   executor: Optional[Executor] = None,
                   store: StoreLike = None) -> List[TheoremCheckRow]:
    """Run the Theorem 6.5 / 6.6 implementation checks with the given failure model.

    Each check enumerates the full system of the (model-swapped) context with
    the bitset model checker and compares the concrete protocol against
    ``P0`` at every reachable local state; a failed check reports the number
    of counterexample states.
    ``executor`` is unused; the benchmark's ``models-jobs2`` workload still
    passes one, so dropping it waits on that benchmark's next change.
    """
    if isinstance(model, str):
        model = make_model(model, n, t)
    elif model.n != n or model.t != t:
        # The behaviour sweep and the theorem checks run at different sizes;
        # re-instantiate the caller's model at the theorem-check (n, t).
        cls = type(model)
        model = cls(n) if cls is model_class("failure-free") else cls(n=n, t=t)
    model_name = model.name
    rows: List[TheoremCheckRow] = []
    for claim, protocol, gamma, context_name in (
        ("Theorem 6.5: P_min implements P0", MinProtocol(t), gamma_min, "gamma_min"),
        ("Theorem 6.6: P_basic implements P0", BasicProtocol(t), gamma_basic, "gamma_basic"),
    ):
        context = gamma(n, t, failure_model=model)
        report = check_implements(protocol, make_p0(n), context, store=store)
        rows.append(TheoremCheckRow(
            model=model_name,
            claim=claim,
            context=context_name,
            n=n,
            t=t,
            states_checked=report.checked_states,
            holds=report.ok,
            mismatches=len(report.mismatches),
        ))
    return rows


def measure(n: int = 4, t: int = 1,
            models: Sequence["FailureModel | str"] = DEFAULT_MODELS,
            count: int = 12, seed: int = 23,
            include_theorems: bool = True,
            theorem_n: int = 3, theorem_t: int = 1,
            executor: Optional[Executor] = None,
            store: StoreLike = None,
            ) -> Tuple[List[ModelBehaviourRow], List[TheoremCheckRow]]:
    """The full E12 comparison: behaviour sweep plus per-model theorem checks."""
    behaviour = measure_behaviour(n, t, models=models, count=count, seed=seed,
                                  executor=executor, store=store)
    theorems: List[TheoremCheckRow] = []
    if include_theorems:
        for model in models:
            theorems.extend(check_theorems(model, n=theorem_n, t=theorem_t,
                                           executor=executor, store=store))
    return behaviour, theorems


def report(n: int = 4, t: int = 1,
           models: Sequence["FailureModel | str"] = DEFAULT_MODELS,
           count: int = 12, seed: int = 23,
           include_theorems: bool = True,
           theorem_n: int = 3, theorem_t: int = 1,
           executor: Optional[Executor] = None,
           store: StoreLike = None) -> str:
    """Render the failure-model comparison as tables."""
    behaviour, theorems = measure(n=n, t=t, models=models, count=count, seed=seed,
                                  include_theorems=include_theorems,
                                  theorem_n=theorem_n, theorem_t=theorem_t,
                                  executor=executor, store=store)
    parts = [format_table(
        [row.as_row() for row in behaviour],
        title=f"E12 — protocol behaviour per failure model (n={n}, t={t})",
    )]
    if theorems:
        parts.append("")
        parts.append(format_table(
            [row.as_row() for row in theorems],
            title=("E12 — Theorem 6.5 / 6.6 implementation checks per model "
                   f"(n={theorem_n}, t={theorem_t})"),
        ))
        parts.extend([
            "",
            "The paper proves Theorems 6.5/6.6 for the sending-omissions model SO(t);",
            "swapping the context's failure model shows which halves are SO-specific.",
        ])
        broken = [row for row in theorems if not row.holds]
        if broken:
            for row in broken:
                parts.append(f"Under {row.model} the check '{row.claim}' fails with "
                             f"{row.mismatches} counterexample state(s).")
            parts.extend([
                "At those states the knowledge-based program decides strictly earlier",
                "than the concrete protocol (a missed message incriminates the faulty",
                "*receiver*, removing the ambiguity the SO-calibrated rule waits out).",
            ])
        else:
            parts.append("Every checked claim holds under the compared models.")
    return "\n".join(parts)
