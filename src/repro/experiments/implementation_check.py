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
from typing import Callable, Dict, List, Tuple

from ..failures.models import FailureModel
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


#: Theorem id -> (protocol, program, context) constructor at ``(n, t)``: the
#: one table of what each implementation claim checks.  E7, E10, E11, E12, the
#: CLI's ``cache warm`` / ``cache missing`` and the service's ``theorem``
#: requests all read it, so their keys equal the report keys these checks cache
#: under.  Appendix theorems are keyed ``a<number>``.
THEOREM_PARTS: Dict[str, Callable[..., tuple]] = {
    "6.5": lambda n, t, failure_model=None: (
        MinProtocol(t), make_p0(n), gamma_min(n, t, failure_model=failure_model)),
    "6.6": lambda n, t, failure_model=None: (
        BasicProtocol(t), make_p0(n), gamma_basic(n, t, failure_model=failure_model)),
    "a21": lambda n, t, failure_model=None: (
        OptimalFipProtocol(t), make_p1(n, t), gamma_fip(n, t, failure_model=failure_model)),
}

#: The rows in a limited-information context: Theorems 6.5 and 6.6, whose
#: protocols Proposition 6.4 (safety), Corollary 6.7 (optimality) and Section
#: 7 (``P1 ≡ P0``) are also about.
LIMITED: Tuple[str, ...] = ("6.5", "6.6")


def theorem_report_key(theorem: str, n: int, t: int) -> str:
    """The store key :func:`check_theorem` caches ``theorem``'s report under.

    ``max_time=None`` and ``max_mismatches=10`` are
    :func:`~repro.kbp.implementation.check_implements`' defaults.
    """
    from ..store import implementation_report_key
    return implementation_report_key(*THEOREM_PARTS[theorem](n, t), None, 10)


def check_theorem(theorem: str, n: int = 3, t: int = 1,
                  failure_model: "FailureModel | str | None" = None,
                  store=None) -> ImplementationReport:
    """Check the implementation theorem ``theorem`` (a key of :data:`THEOREM_PARTS`).

    ``failure_model`` swaps the context's failure model (``SO(t)`` if omitted).
    Theorem A.21 (Proposition 7.9) is the paper's polynomial-time claim checked
    against the knowledge-based program itself: ``P_opt``'s communication-graph
    tests must agree with the model-checked ``P1`` at every reachable state.
    """
    protocol, program, context = THEOREM_PARTS[theorem](n, t, failure_model)
    return check_implements(protocol, program, context, store=store)


def theorem_claim(theorem: str, report: ImplementationReport) -> str:
    """The row label of ``theorem``'s report, e.g. ``Theorem 6.5: P_min implements P0``."""
    number = f"A.{theorem[1:]}" if theorem.startswith("a") else theorem
    return f"Theorem {number}: {report.protocol_name} implements {report.program_name}"


def _equivalence_verdict(protocol, context, store) -> bool:
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
    system = context.build_system(protocol, store=resolved_store)
    verdict = programs_equivalent(first, second, system)
    if resolved_store is not None and key is not None:
        resolved_store.put(key, verdict, kind="equivalence-report")
    return verdict


def check_p0_p1_equivalence(n: int = 3, t: int = 1, store=None) -> Dict[str, bool]:
    """Section 7: ``P0`` and ``P1`` prescribe the same actions in the limited contexts."""
    verdicts = {}
    for theorem in LIMITED:
        protocol, _, context = THEOREM_PARTS[theorem](n, t)
        verdicts[context.name] = _equivalence_verdict(protocol, context, store)
    return verdicts


def measure(n: int = 3, t: int = 1, include_equivalence: bool = True,
            include_fip: bool = True, store=None) -> List[ImplementationMeasurement]:
    """Run every implementation check at the given system size.

    The full-information rows (Theorem A.21) come first; ``include_fip=False``
    leaves them out.
    """
    fip = [theorem for theorem in THEOREM_PARTS if theorem not in LIMITED] if include_fip else []
    measurements: List[ImplementationMeasurement] = []
    for theorem in fip + list(LIMITED):
        checked = check_theorem(theorem, n, t, store=store)
        measurements.append(ImplementationMeasurement(
            claim=theorem_claim(theorem, checked), context=checked.context_name,
            n=n, t=t, states_checked=checked.checked_states, holds=checked.ok))
    if include_equivalence:
        for context, holds in check_p0_p1_equivalence(n, t, store=store).items():
            measurements.append(ImplementationMeasurement(
                claim="Section 7: P1 ≡ P0", context=context, n=n, t=t,
                states_checked=0, holds=holds))
    return measurements


def report(n: int = 3, t: int = 1, store=None) -> str:
    """Render the implementation checks as a table.

    Every system is built in-process (see
    :func:`~repro.systems.interpreted.build_system`); ``store`` serves the
    system builds and the finished reports from the artifact cache
    (see :mod:`repro.store`).
    """
    measurements = measure(n, t, store=store)
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
