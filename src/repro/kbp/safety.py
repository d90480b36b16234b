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
round ``m + 1``" is a shift-and-mask pipeline over the decided word arrays, "some
indistinguishable point with X" is one ``np.bincount`` class reduction — and
computes the 0-chain receipt table once per shared round record rather than
once per run (:func:`_chain_receipt_kernel`), all in-process.  This is what
makes the n=5 Def 6.2 scan take seconds.  The original
point-by-point scan is kept in :mod:`repro.kbp.reference` as the
differential oracle; ``tests/test_kbp_safety.py`` asserts that both produce
identical reports — same counters, same violations in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import monotonic as _monotonic
from typing import List, Optional, TYPE_CHECKING

import numpy as np

from ..analysis.chains import reveals_zero_decision
from ..core.cancel import checkpoint
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


def _chain_receipt_kernel(system: InterpretedSystem, start: int, stop: int) -> np.ndarray:
    """Earliest 0-chain receipt times for runs ``[start, stop)``, one ``int16`` row per run.

    ``rows[r - start][agent]`` is the earliest time a 0-chain ends at
    ``agent`` in run ``r`` (-1 if none): the receipt table of
    :func:`repro.kbp.reference.chain_receipt_table` as a dense array, i.e.
    exactly what :func:`~repro.analysis.chains.zero_chains` finds per run.

    It reads the system's :class:`~repro.simulation.batch.RunTable`: each
    shared :class:`~repro.simulation.trace.RoundRecord` is read once, into a
    row of its decides-0 agents and, per receiver, the senders whose
    decision its inbox reveals, as bitmasks; the table's round-major
    record-id matrix then gathers those rows for every run at once.  The
    batched engine shares one record per distinct transition, so that is a
    few thousand rows, not one per run and round (sharing only makes the
    table smaller; the result never depends on it).  ``zero_chains``' rules
    then run as a numpy pass over rounds × predecessors, across all runs at
    once:

    * in round 0 a chain starts at each init-0 agent deciding 0;
    * a later decider extends the chain of the *first* predecessor, in
      ascending order, that has a chain one round earlier, is not already on
      it and whose decision it saw;
    * failing that, an init-0 decider gets the length-0 singleton chain.
    """
    n = system.n
    table = system.run_table()
    record_ids = table.record_ids[:, start:stop]
    width, count = record_ids.shape
    earliest = np.full((count, n), -1, dtype=np.int16)
    if not width or not count:
        return earliest
    records = table.records
    if not isinstance(table.lengths, int):
        # The last row is the padding round past a short trace's end:
        # nobody decides, nothing is seen.
        record_ids = np.where(np.arange(width)[:, None] < table.lengths[start:stop],
                              record_ids, len(records))
    deciders_rows = [sum(1 << agent for agent, action in enumerate(record.actions)
                         if action.is_decision and action.value == 0)
                     for record in records]
    seen_rows = [tuple(sum(1 << sender for sender, message in enumerate(inbox)
                           if reveals_zero_decision(message))
                       for inbox in record.delivered)
                 for record in records]
    deciders_rows.append(0)
    seen_rows.append((0,) * n)
    zero_prefs = [sum(1 << agent for agent, value in enumerate(prefs) if value == 0)
                  for prefs in table.preferences]

    mask_type = np.min_scalar_type((1 << n) - 1)
    deciders = np.asarray(deciders_rows, dtype=mask_type)[record_ids]
    seen = np.asarray(seen_rows, dtype=mask_type)[record_ids]
    agent_bits = (1 << np.arange(n)).astype(mask_type)
    init_zero = (np.asarray(zero_prefs, dtype=mask_type)[
        table.run_preferences[start:stop]][:, None] & agent_bits) != 0

    has_chain = np.zeros((count, n), dtype=bool)
    length = np.zeros((count, n), dtype=np.int16)
    members = np.zeros((count, n), dtype=mask_type)
    for round_index in range(width):
        deciding = (deciders[round_index, :, None] & agent_bits) != 0
        extended = np.zeros_like(deciding)
        next_length = np.zeros_like(length)
        next_members = np.zeros_like(members)
        if round_index:
            seen_before = seen[round_index - 1]
            for predecessor in range(n):
                extend = (deciding & ~extended & has_chain[:, predecessor, None]
                          & ((members[:, predecessor, None] & agent_bits) == 0)
                          & ((seen_before & agent_bits[predecessor]) != 0))
                next_length = np.where(extend, length[:, predecessor, None] + 1, next_length)
                next_members = np.where(extend, members[:, predecessor, None], next_members)
                extended |= extend
        # In round 0 this is every chain: the init-0 agents deciding 0.
        singleton = deciding & ~extended & init_zero
        has_chain = extended | singleton
        length = next_length
        members = np.where(has_chain, next_members | agent_bits, 0).astype(mask_type)
        improves = has_chain & ((earliest < 0) | (length < earliest))
        earliest[improves] = length[improves]
    return earliest


def check_safety(protocol: ActionProtocol, context: EBAContext,
                 system: Optional[InterpretedSystem] = None,
                 max_violations: int = 10,
                 executor: object = None,
                 store: "StoreLike" = None) -> SafetyReport:
    """Check the Definition 6.2 safety condition for ``protocol`` in ``context``.

    The system ``I_{γ, P}`` is built by exhaustive enumeration unless provided
    (the build and the scan always run in-process).  Points at the final time
    of the bounded system are skipped for clause 2 (the "deciding in round
    m + 1" witness lies beyond the horizon there, and the paper's protocols
    have all decided by then anyway).

    ``executor`` is unused; the benchmark's ``models-jobs2`` workload still
    passes one, so dropping it waits on that benchmark's next change.

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
        system = context.build_system(protocol, store=resolved_store)
    scan_span = _trace.NOOP
    if _trace.is_active():
        scan_span = _trace.span("safety.check", "check", {
            "protocol": protocol.name, "context": context.name,
            "points": system.num_points})
    with scan_span:
        report = _check_safety_vector(protocol, context, system, max_violations)
    if resolved_store is not None and report_key is not None:
        resolved_store.put(report_key, report, kind="safety-report")
    return report


def _check_safety_vector(protocol: ActionProtocol, context: EBAContext,
                         system: InterpretedSystem, max_violations: int) -> SafetyReport:
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
    * the 0-chain receipt table comes from :func:`_chain_receipt_kernel`,
      which has no per-run Python: it reads each shared round record once
      and gathers through the system's run table.

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
    checkpoint()
    phase_start = _monotonic() if tracing else 0.0
    nonfaulty_w = [system.nonfaulty_words(j) for j in range(n)]
    # A0_j: j decides 0 in round m+1  (⊥ at m, 0 at m+1).
    decides_next = []
    for j in range(n):
        decides_next.append(system.decided_words(j, None)
                            & _words.shift_down_words(system.decided_words(j, 0))
                            & ~final_w)
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
    table = system.run_table()
    all_ones = np.fromiter(
        (all(value == 1 for value in prefs) for prefs in table.preferences),
        dtype=bool, count=len(table.preferences))[table.run_preferences]
    all_ones_points = np.repeat(all_ones, stride).astype(np.uint8)
    if tracing:
        _trace.complete("safety.primitives", phase_start, _monotonic(), "check")

    # ---- chain receipts -------------------------------------------------------
    checkpoint()
    with _trace.span("safety.chain_receipts", "check"):
        earliest = _chain_receipt_kernel(system, 0, num_runs)

    # ---- per-agent clause checks ---------------------------------------------
    phase_start = _monotonic() if tracing else 0.0
    violation_points: List[np.ndarray] = []
    violation_agents: List[np.ndarray] = []
    violation_clauses: List[np.ndarray] = []
    for agent in range(n):
        checkpoint()
        class_ids = system.class_id_array(agent)
        num_classes = len(system.partition(agent).class_states)

        per_point_earliest = np.repeat(earliest[:, agent], stride)
        received = (per_point_earliest >= 0) & (per_point_earliest <= times)
        unreceived = ~received
        report.clause1_checks += int(np.count_nonzero(unreceived))
        clause1_witness = _words.class_any(class_ids, num_classes, all_ones_points)
        clause1_fails = unreceived & ~clause1_witness

        undecided = _words.unpack_words(system.decided_words(agent, None),
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
