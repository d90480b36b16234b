"""Experiment E7 — implementation theorems checked by explicit model checking.

Theorem 6.5: ``P_min`` implements the knowledge-based program ``P0`` in the
context ``γ_min,n,t`` (for ``t ≤ n - 2``).  Theorem 6.6: ``P_basic`` implements
``P0`` in ``γ_basic,n,t``.  Section 7 additionally observes that ``P1`` is
equivalent to ``P0`` in those limited-information contexts (agents never learn
who is faulty, so the common-knowledge clauses never fire).

For small systems we can *verify* these statements directly: enumerate every
run of the context (all ``SO(t)`` failure patterns and all preference vectors
up to the horizon ``t + 2``), evaluate the knowledge-based program's guards
with the model checker, and compare its prescriptions with the concrete
protocol's actions at every reachable local state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..kbp.implementation import ImplementationReport, check_implements, programs_equivalent
from ..kbp.programs import make_p0, make_p1
from ..protocols.pbasic import BasicProtocol
from ..protocols.pmin import MinProtocol
from ..protocols.popt import OptimalFipProtocol
from ..reporting.tables import format_table
from ..systems.contexts import gamma_basic, gamma_fip, gamma_min


@dataclass(frozen=True)
class ImplementationMeasurement:
    """One implementation-check result."""

    claim: str
    context: str
    n: int
    t: int
    states_checked: int
    holds: bool

    def as_row(self) -> Dict[str, object]:
        return {
            "claim": self.claim,
            "context": self.context,
            "n": self.n,
            "t": self.t,
            "states checked": self.states_checked,
            "holds": self.holds,
        }


def check_theorem_6_5(n: int = 3, t: int = 1,
                      max_faulty_enumerated: Optional[int] = None,
                      executor=None, store=None) -> ImplementationReport:
    """Theorem 6.5: ``P_min`` implements ``P0`` in ``γ_min,n,t``."""
    context = gamma_min(n, t, max_faulty_enumerated=max_faulty_enumerated)
    return check_implements(MinProtocol(t), make_p0(n), context, executor=executor,
                            store=store)


def check_theorem_6_6(n: int = 3, t: int = 1,
                      max_faulty_enumerated: Optional[int] = None,
                      executor=None, store=None) -> ImplementationReport:
    """Theorem 6.6: ``P_basic`` implements ``P0`` in ``γ_basic,n,t``."""
    context = gamma_basic(n, t, max_faulty_enumerated=max_faulty_enumerated)
    return check_implements(BasicProtocol(t), make_p0(n), context, executor=executor,
                            store=store)


def check_theorem_a21(n: int = 3, t: int = 1,
                      max_faulty_enumerated: Optional[int] = None,
                      executor=None, store=None) -> ImplementationReport:
    """Theorem A.21 / Proposition 7.9: ``P_opt`` implements ``P1`` in ``γ_fip,n,t``.

    This is the paper's polynomial-time-implementation claim checked against the
    knowledge-based program itself: the concrete communication-graph tests
    (``common_v`` / ``cond0`` / ``cond1``) must agree with the model-checked
    knowledge and common-knowledge conditions at every reachable local state.
    """
    context = gamma_fip(n, t, max_faulty_enumerated=max_faulty_enumerated)
    return check_implements(OptimalFipProtocol(t), make_p1(n, t), context, executor=executor,
                            store=store)


def _equivalence_verdict(protocol, context, executor, store) -> bool:
    """Whether ``P0`` and ``P1`` agree over ``context.build_system(protocol)``.

    With a store, the verdict is cached under
    :func:`~repro.store.equivalence_report_key`, so a hit builds no system.
    """
    from ..store import equivalence_report_key, resolve_store
    first, second = make_p0(context.n), make_p1(context.n, context.t)
    resolved_store = resolve_store(store)
    key = None
    if resolved_store is not None:
        key = equivalence_report_key(first, second, protocol, context, None)
        cached = resolved_store.get(key)
        if cached is not None:
            return cached
    system = context.build_system(protocol, executor=executor, store=resolved_store)
    verdict = programs_equivalent(first, second, system)
    if resolved_store is not None and key is not None:
        resolved_store.put(key, verdict, kind="equivalence-report")
    return verdict


def check_p0_p1_equivalence(n: int = 3, t: int = 1, executor=None,
                            store=None) -> Dict[str, bool]:
    """Section 7: ``P0`` and ``P1`` prescribe the same actions in the limited contexts."""
    return {
        "gamma_min": _equivalence_verdict(MinProtocol(t), gamma_min(n, t), executor, store),
        "gamma_basic": _equivalence_verdict(BasicProtocol(t), gamma_basic(n, t),
                                            executor, store),
    }


def measure(n: int = 3, t: int = 1, include_equivalence: bool = True,
            include_fip: bool = True, executor=None,
            store=None) -> List[ImplementationMeasurement]:
    """Run every implementation check at the given system size."""
    measurements: List[ImplementationMeasurement] = []
    if include_fip:
        report_fip = check_theorem_a21(n, t, executor=executor, store=store)
        measurements.append(ImplementationMeasurement(
            claim="Theorem A.21: P_opt implements P1",
            context="gamma_fip",
            n=n,
            t=t,
            states_checked=report_fip.checked_states,
            holds=report_fip.ok,
        ))
    report_min = check_theorem_6_5(n, t, executor=executor, store=store)
    measurements.append(ImplementationMeasurement(
        claim="Theorem 6.5: P_min implements P0",
        context="gamma_min",
        n=n,
        t=t,
        states_checked=report_min.checked_states,
        holds=report_min.ok,
    ))
    report_basic = check_theorem_6_6(n, t, executor=executor, store=store)
    measurements.append(ImplementationMeasurement(
        claim="Theorem 6.6: P_basic implements P0",
        context="gamma_basic",
        n=n,
        t=t,
        states_checked=report_basic.checked_states,
        holds=report_basic.ok,
    ))
    if include_equivalence:
        equivalences = check_p0_p1_equivalence(n, t, executor=executor, store=store)
        for context_name, holds in equivalences.items():
            measurements.append(ImplementationMeasurement(
                claim="Section 7: P1 ≡ P0",
                context=context_name,
                n=n,
                t=t,
                states_checked=0,
                holds=holds,
            ))
    return measurements


def report(n: int = 3, t: int = 1, executor=None, store=None) -> str:
    """Render the implementation checks as a table.

    ``executor`` is forwarded to each context's system build, which runs
    in-process whatever the executor (see
    :func:`~repro.systems.interpreted.build_system`); ``store`` serves the
    system builds and the finished reports from the artifact cache
    (see :mod:`repro.store`).
    """
    measurements = measure(n, t, executor=executor, store=store)
    table = format_table(
        [m.as_row() for m in measurements],
        title=f"E7 — knowledge-based program implementation checks (n={n}, t={t})",
    )
    notes = [
        "",
        "The checks enumerate every run of the context (all SO(t) adversaries and all",
        "preference vectors up to horizon t + 2) and compare the protocol's action with",
        "the knowledge-based program's prescription at every reachable local state.",
    ]
    return table + "\n" + "\n".join(notes)
