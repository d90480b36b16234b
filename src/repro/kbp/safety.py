"""The safety condition of Definition 6.2 and its check (Proposition 6.4).

Theorem 6.3 reduces optimality of the knowledge-based program ``P0`` to a
*safety* condition on the context: writing ``I`` for the system generated by an
implementation ``P`` of ``P0``, for every point ``(r, m)`` and agent ``i``,

1. if ``i`` has not received a 0-chain by ``(r, m)``, then some point
   ``(r', m)`` with the same ``i``-local state has *all* initial preferences
   equal to 1 (so ``i`` cannot know ``∃0`` except via a chain); and

2. if ``i`` cannot rule out that some agent is deciding 0 (and has not decided
   yet), then some indistinguishable point ``(r', m)`` has ``i`` nonfaulty and
   a *nonfaulty* agent ``j`` deciding 0 in round ``m + 1``; moreover (for
   ``m ≥ 1``) there is a run ``r''`` in which ``j`` has the same local state at
   time ``m``, some agent ``j'`` decides 0 in round ``m``, and both are
   nonfaulty in ``r''``.

Proposition 6.4 proves that ``P0`` is safe with respect to ``γ_min`` and
``γ_basic`` whenever ``n - t ≥ 2``.  For small systems we can *check* the
condition exhaustively over the enumerated system; that is what
:func:`check_safety` does (for the canonical implementations ``P_min`` /
``P_basic`` — the definition quantifies over all implementations, and Theorems
6.5 / 6.6 identify these as the implementations in their contexts).

The check turns the per-point quantifier alternation into word-array /
per-class reductions over the whole system at once — "``j`` decides 0 in
round ``m + 1``" is a shift-and-mask pipeline over the decided masks, "some
indistinguishable point with X" is one ``np.bincount`` class reduction — and
shards the one irreducibly per-run ingredient (the 0-chain receipt table)
across processes through ``executor.scan_runs`` (see :mod:`repro.api.scans`).
This is what makes the n=5 Def 6.2 scan feasible.  The original
point-by-point scan is kept in :mod:`repro.kbp.reference` as the
differential oracle; ``tests/test_kbp_safety.py`` asserts that both produce
identical reports — same counters, same violations in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import monotonic as _monotonic
from typing import List, Optional, TYPE_CHECKING

import numpy as np

from ..analysis.chains import zero_chains
from ..core.types import AgentId
from ..logic import words as _words
from ..logic.formula import Knows, nobody_deciding
from ..logic.semantics import ModelChecker
from ..obs import trace as _trace
from ..protocols.base import ActionProtocol
from ..systems.contexts import EBAContext
from ..systems.interpreted import InterpretedSystem
from ..systems.points import Point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.executors import Executor
    from ..store import StoreLike


@dataclass(frozen=True)
class SafetyViolation:
    """A point at which one clause of the safety condition fails."""

    clause: int
    agent: AgentId
    point: Point
    detail: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"clause {self.clause} fails for agent {self.agent} at {self.point}: {self.detail}"


@dataclass
class SafetyReport:
    """Outcome of checking Definition 6.2 over an enumerated system."""

    protocol_name: str
    context_name: str
    points_checked: int = 0
    clause1_checks: int = 0
    clause2_checks: int = 0
    violations: List[SafetyViolation] = field(default_factory=list)

    @property
    def safe(self) -> bool:
        """Whether no clause of the safety condition failed."""
        return not self.violations

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "safe" if self.safe else f"{len(self.violations)} violation(s)"
        return (f"SafetyReport({self.protocol_name} in {self.context_name}: {status}, "
                f"{self.points_checked} points)")


_CLAUSE1_DETAIL = "no indistinguishable point with all initial preferences 1"
_CLAUSE2_DETAIL = "no indistinguishable nonfaulty-witness point found"


def _chain_receipt_kernel(system: InterpretedSystem, start: int, stop: int):
    """Scan kernel: per-run earliest 0-chain receipt times, one ``int16`` row per run.

    ``rows[r - start][agent]`` is the earliest time a 0-chain ends at
    ``agent`` in run ``r`` (-1 if none) — the receipt table of
    :func:`repro.kbp.reference.chain_receipt_table` as a dense array over a
    contiguous run range, the fan-out unit of :func:`repro.api.scans.scan_runs`.
    """
    rows = np.full((stop - start, system.n), -1, dtype=np.int16)
    for offset in range(stop - start):
        for chain in zero_chains(system.runs[start + offset]):
            current = rows[offset, chain.last_agent]
            if current < 0 or chain.length < current:
                rows[offset, chain.last_agent] = chain.length
    return rows


def _chain_receipts(system: InterpretedSystem, executor: Optional["Executor"]):
    """The full ``(num_runs, n)`` receipt array, sharded when the executor can."""
    if executor is not None and hasattr(executor, "scan_runs"):
        return executor.scan_runs(system, _chain_receipt_kernel,
                                  row_shape=(system.n,), dtype="int16")
    from ..api.scans import scan_runs
    return scan_runs(system, _chain_receipt_kernel,
                     row_shape=(system.n,), dtype="int16", workers=1)


def check_safety(protocol: ActionProtocol, context: EBAContext,
                 system: Optional[InterpretedSystem] = None,
                 max_violations: int = 10,
                 executor: Optional["Executor"] = None,
                 store: "StoreLike" = None) -> SafetyReport:
    """Check the Definition 6.2 safety condition for ``protocol`` in ``context``.

    The system ``I_{γ, P}`` is built by exhaustive enumeration unless provided
    (the build always runs in-process; ``executor`` supplies its optional
    ``checkpoint()`` hook and shards the per-run 0-chain receipt pass across
    processes through ``executor.scan_runs``).  Points at the final time of
    the bounded system are skipped for clause 2 (the "deciding in round
    m + 1" witness lies beyond the horizon there, and the paper's protocols
    have all decided by then anyway).

    ``store`` caches the finished report (and the system build) by content
    key; as with :func:`~repro.kbp.implementation.check_implements`, the
    report cache is only consulted when the system is built here.
    """
    from ..store import resolve_store, safety_report_key
    resolved_store = resolve_store(store) if system is None else None
    report_key = None
    if resolved_store is not None:
        report_key = safety_report_key(protocol, context, max_violations)
        cached = resolved_store.get(report_key)
        if cached is not None:
            return cached
    if system is None:
        system = context.build_system(protocol, executor=executor, store=resolved_store)
    scan_span = _trace.NOOP
    if _trace.is_active():
        scan_span = _trace.span("safety.check", "check", {
            "protocol": protocol.name, "context": context.name,
            "points": system.num_points})
    with scan_span:
        report = _check_safety_vector(protocol, context, system,
                                      max_violations, executor)
    if resolved_store is not None and report_key is not None:
        resolved_store.put(report_key, report, kind="safety-report")
    return report


def _check_safety_vector(protocol: ActionProtocol, context: EBAContext,
                         system: InterpretedSystem, max_violations: int,
                         executor: Optional["Executor"]) -> SafetyReport:
    """Whole-system Definition 6.2 scan on word arrays and class reductions.

    The quantifier structure maps onto the kernels of
    :mod:`repro.logic.words` clause by clause:

    * ``A0_j`` — "``j`` decides 0 in round ``m + 1``" — is
      ``decided_j = ⊥`` now AND ``decided_j = 0`` next: a word-level AND with
      one cross-word shift (decisions are exactly the ⊥→value edges of the
      monotone ``decided`` component, the same reading the per-point oracle
      takes from the action log);
    * ``B0_j`` (" … in round ``m``") is ``A0_j`` shifted one step later;
    * every "some point indistinguishable to ``i`` with property X" is one
      :func:`~repro.logic.words.class_any` reduction over ``i``'s interned
      class ids;
    * the 0-chain receipt table — the only per-run Python left — comes from
      :func:`_chain_receipts`, sharded across processes when the executor
      supports ``scan_runs``.

    Counter and violation parity with
    :func:`repro.kbp.reference.scan_per_point` (same counts, same violations,
    same ``(point, agent)`` order, capped at ``max_violations``) is asserted
    differentially in ``tests/test_kbp_safety.py``.
    """
    checker = ModelChecker(system)
    report = SafetyReport(protocol_name=protocol.name, context_name=context.name)
    n = system.n
    num_runs = len(system.runs)
    num_points = system.num_points
    stride = system.stride
    horizon = system.horizon

    full_w = system.full_words()
    final_w = system.time_words(horizon)
    initial_w = system.time_words(0)

    report.points_checked = num_points

    # Per-point time vector and the clause-2 time guard (m < horizon).
    times = np.tile(np.arange(stride, dtype=np.int16), num_runs)
    before_horizon = times < horizon

    # ---- per-agent primitives -------------------------------------------------
    # Phase timing uses retroactive complete() stamps rather than nested
    # context managers: the phases are flat sequential regions of this one
    # function, and a stamp cannot leak the thread-local span stack.
    tracing = _trace.is_active()
    phase_start = _monotonic() if tracing else 0.0
    nonfaulty_w = [system.nonfaulty_words(j) for j in range(n)]
    # A0_j: j decides 0 in round m+1  (⊥ at m, 0 at m+1).
    decides_next = []
    for j in range(n):
        none_w = _words.mask_to_words(system.decided_mask(j, None), num_points)
        zero_w = _words.mask_to_words(system.decided_mask(j, 0), num_points)
        decides_next.append(none_w & _words.shift_down_words(zero_w) & ~final_w)
    # B0_j: j decides 0 in round m (the one-step-later shift of A0_j).
    decides_now = [_words.shift_up_words(a0, full_w) & ~initial_w
                   for a0 in decides_next]

    # ---- clause 2(c): the nested second witness -------------------------------
    # ZB: some nonfaulty j' decides 0 in round m (run-wide property at time m).
    second_decider = _words.zero_words(num_points)
    for j in range(n):
        second_decider |= nonfaulty_w[j] & decides_now[j]

    # Wit[q]: some nonfaulty witness j decides 0 in round m+1 at q and (m = 0
    # or a run indistinguishable *to j* carries the round-m decider of 2(c)).
    at_time_zero = _words.unpack_words(initial_w, num_points).astype(bool)
    witness_ok = np.zeros(num_points, dtype=bool)
    for j in range(n):
        class_ids = system.class_id_array(j)
        num_classes = len(system.partition(j).class_states)
        second = _words.class_any(
            class_ids, num_classes,
            _words.unpack_words(nonfaulty_w[j] & second_decider, num_points))
        deciding = _words.unpack_words(nonfaulty_w[j] & decides_next[j],
                                       num_points).astype(bool)
        witness_ok |= deciding & (at_time_zero | second)

    # ---- clause 1 witness: an all-ones run in the class -----------------------
    all_ones = np.fromiter(
        (all(value == 1 for value in trace.preferences) for trace in system.runs),
        dtype=bool, count=num_runs)
    all_ones_points = np.repeat(all_ones, stride).astype(np.uint8)
    if tracing:
        _trace.complete("safety.primitives", phase_start, _monotonic(), "check")

    # ---- chain receipts (the sharded per-run pass) ----------------------------
    with _trace.span("safety.chain_receipts", "check"):
        earliest = np.asarray(_chain_receipts(system, executor), dtype=np.int16)

    # ---- per-agent clause checks ---------------------------------------------
    phase_start = _monotonic() if tracing else 0.0
    violation_points: List[np.ndarray] = []
    violation_agents: List[np.ndarray] = []
    violation_clauses: List[np.ndarray] = []
    for agent in range(n):
        class_ids = system.class_id_array(agent)
        num_classes = len(system.partition(agent).class_states)

        per_point_earliest = np.repeat(earliest[:, agent], stride)
        received = (per_point_earliest >= 0) & (per_point_earliest <= times)
        unreceived = ~received
        report.clause1_checks += int(np.count_nonzero(unreceived))
        clause1_witness = _words.class_any(class_ids, num_classes, all_ones_points)
        clause1_fails = unreceived & ~clause1_witness

        undecided = _words.unpack_words(
            _words.mask_to_words(system.decided_mask(agent, None), num_points),
            num_points).astype(bool)
        knows_no_zero = checker.satisfying_words(Knows(agent, nobody_deciding(n, 0)))
        cannot_rule_out = _words.unpack_words(full_w & ~knows_no_zero,
                                              num_points).astype(bool)
        # Clause 2 is only reached when clause 1 did not already fail here.
        applicable = ~clause1_fails & before_horizon & undecided & cannot_rule_out
        report.clause2_checks += int(np.count_nonzero(applicable))
        clause2_witness = _words.class_any(
            class_ids, num_classes,
            (_words.unpack_words(nonfaulty_w[agent], num_points).astype(bool)
             & witness_ok).astype(np.uint8))
        clause2_fails = applicable & ~clause2_witness

        for clause, fails in ((1, clause1_fails), (2, clause2_fails)):
            indices = np.nonzero(fails)[0]
            if len(indices):
                violation_points.append(indices)
                violation_agents.append(np.full(len(indices), agent, dtype=np.int64))
                violation_clauses.append(np.full(len(indices), clause, dtype=np.int64))
    if tracing:
        _trace.complete("safety.clause_scan", phase_start, _monotonic(), "check")

    # ---- violations, in the per-point oracle's (point, agent) order -----------
    if violation_points:
        points = np.concatenate(violation_points)
        agents = np.concatenate(violation_agents)
        clauses = np.concatenate(violation_clauses)
        # At most one violation per (point, agent) pair — clause 1 failing
        # skips clause 2 — so (point, agent) is a total order.
        order = np.lexsort((agents, points))[:max_violations]
        for index in order:
            clause = int(clauses[index])
            report.violations.append(SafetyViolation(
                clause=clause, agent=int(agents[index]),
                point=system.point_at(int(points[index])),
                detail=_CLAUSE1_DETAIL if clause == 1 else _CLAUSE2_DETAIL))
    return report
