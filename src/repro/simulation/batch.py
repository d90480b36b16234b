"""Batched, round-major system construction.

:func:`~repro.simulation.engine.simulate` executes one run at a time: it
constructs the protocol's information exchange, then alternates ``act`` /
``messages_for`` / delivery / ``update`` for every agent, every round.  That is
the right shape for a single scenario, but exhaustive system construction
(:func:`repro.systems.interpreted.build_system`) calls it once per
``(pattern, preference-vector)`` pair — ``|patterns| × 2^n`` times — and almost
all of that work is repeated: runs that have seen the same messages so far are
in *identical* global states, so they perform identical actions, send identical
messages, and differ only in which edges the failure pattern blocks next.

:class:`BatchSimulator` advances **all** runs of a system together, one round
at a time, and shares every piece of work that can be shared:

* the exchange is constructed once per simulator, not once per run;
* ``act`` and ``messages_for`` are evaluated once per *distinct* local state
  (memoised; local states are frozen and hashable);
* every produced local state and every global state tuple is interned, so runs
  sharing a state prefix literally share the objects — the interning insight
  of :class:`~repro.systems.interpreted.AgentPartition` applied at build time;
* the whole round transition — actions, sent, delivered, bit counts, new
  states, the :class:`~repro.simulation.trace.RoundRecord` — is computed once
  per distinct ``(global state, blocked-edge set)`` class and reused by every
  run in the class;
* each distinct preference vector is validated, and each distinct failure
  pattern compiled into per-round blocked-edge sets (interned to small integer
  ids), once per call, so the round loop never consults
  :meth:`~repro.failures.pattern.FailurePattern.delivered`;
* the run state lives in numpy arrays — each run's global-state row (the
  interned tuple's index) per time, and its blocked-edge id per round — and
  each round is one pass over the *distinct* ``row × blocked id`` keys
  (``np.unique``), taken in first-appearance order so that interning, row
  numbering and any :class:`~repro.core.errors.ProtocolError` happen exactly
  as in a per-run loop; new rows and record ids are then gathered back to
  the runs, and one object-array gather of the record ids yields every run's
  ``rounds`` list.

The produced traces are **byte-identical** (per-trace pickle) to the per-run
engine's: the transition function is the same deterministic function, and the
sharing the batch introduces is only ever *across* traces — within one trace no
two states or messages are equal (the agent id and the time are part of every
local state), so the intra-trace object topology that pickling observes is
unchanged.  ``tests/test_simulation_batch.py`` enforces this differentially.

Because the simulator already knows, for every interned global state, each
agent's interned local state, it can also emit the per-agent
:class:`~repro.systems.interpreted.AgentPartition` structures for the finished
system directly (:meth:`BatchSimulator.partitions`): it reads the point rows
the round loop stored, then takes a numpy gather and first-appearance relabel
of precomputed class ids per agent, instead of re-hashing every local state.

This module batches the *build* phase, which always runs in-process.  The
check phase leans on the same sharing: the Definition 6.2 safety scan reads
each shared :class:`~repro.simulation.trace.RoundRecord` once, not once per
run (:func:`repro.kbp.safety._chain_receipt_kernel`).
"""

from __future__ import annotations

import operator
from array import array
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, TYPE_CHECKING, Tuple

import numpy as np

from ..core.errors import ConfigurationError, ProtocolError
from ..core.types import Action, PreferenceVector, validate_preferences
from ..exchange.base import InformationExchange, LocalState
from ..failures.pattern import FailurePattern
from ..obs import trace as _trace
from ..obs.bus import BUS, ProgressReporter
from ..protocols.base import ActionProtocol
from .trace import RoundRecord, RunTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exchange.messages import Message
    from ..systems.interpreted import AgentPartition

#: One batched-construction work item: ``(protocol, n, preference_vectors,
#: patterns, horizon)``.  A batch expands to the runs of every pattern crossed
#: with every preference vector, pattern-major and preference-minor — the same
#: deterministic order as :func:`repro.systems.interpreted.build_system`.
BatchTask = Tuple[ActionProtocol, int, Tuple[PreferenceVector, ...],
                  Tuple[FailurePattern, ...], int]

#: A blocked-edge set for one round: the ``(sender, receiver)`` pairs whose
#: message is dropped.
_EdgeSet = frozenset


class BatchSimulator:
    """Round-major batched simulation of many runs of one ``(E, P)`` pair.

    One simulator instance accumulates memoisation state (interned local
    states, transition classes, blocked-edge ids) across every call, so
    simulating several pattern chunks through the same instance keeps the
    sharing; a fresh instance starts cold.  It also keeps every trace it
    returns, with the traces' point rows, for :meth:`partitions`.
    """

    def __init__(self, protocol: ActionProtocol, n: int) -> None:
        if n <= 0:
            raise ConfigurationError(f"number of agents must be positive, got {n}")
        protocol.validate_for(n)
        self.protocol = protocol
        self.n = n
        self.exchange: InformationExchange = protocol.make_exchange(n)
        # -- memoisation state ----------------------------------------------
        self._act: Dict[LocalState, Action] = {}
        #: state -> (outgoing message tuple, bits put on the wire)
        self._outgoing: Dict[LocalState, Tuple[Tuple["Message", ...], int]] = {}
        #: canonical local-state objects: equal states are the same object.
        self._state_intern: Dict[LocalState, LocalState] = {}
        #: canonical global-state tuples by row: row ``r`` is the ``r``-th
        #: distinct tuple interned, and also row ``r`` of ``_cid_table``.
        self._row_states: List[Tuple[LocalState, ...]] = []
        #: element object ids of a global-state tuple -> its row (valid because
        #: elements are canonical; cheap because ids are ints).
        self._rows: Dict[Tuple[int, ...], int] = {}
        #: the ``(rows × n)`` raw class-id table, flat and row-major: row
        #: ``r`` holds each agent's raw class id in global-state tuple ``r``.
        self._cid_table = array("i")
        #: per agent: id(canonical state) -> raw class id, and raw id -> state.
        self._agent_raw: List[Dict[int, int]] = [dict() for _ in range(n)]
        self._agent_states: List[List[LocalState]] = [[] for _ in range(n)]
        #: (row, blocked id) -> (new row, RoundRecord).
        self._transitions: Dict[Tuple[int, int], Tuple[int, RoundRecord]] = {}
        #: blocked-edge set -> small id, and id -> set (delivery application).
        self._blocked_ids: Dict[_EdgeSet, int] = {}
        self._blocked_sets: List[_EdgeSet] = []
        #: preference vector -> row of its initial global state.
        self._initial: Dict[PreferenceVector, int] = {}
        #: per horizon, the ``(traces, point rows)`` of every call with it: the
        #: ``(runs × (horizon + 1))`` int32 rows are what partitions() reads.
        self._produced: Dict[int, List[Tuple[Tuple[RunTrace, ...], np.ndarray]]] = {}

    # ------------------------------------------------------------------ interning

    def _intern_state(self, state: LocalState) -> LocalState:
        canonical = self._state_intern.get(state)
        if canonical is None:
            self._state_intern[state] = state
            canonical = state
        return canonical

    def _intern_row(self, states: Tuple[LocalState, ...]) -> int:
        """The row of the canonical global-state tuple equal to ``states``."""
        key = tuple(map(id, states))
        row = self._rows.get(key)
        if row is None:
            row = len(self._row_states)
            self._rows[key] = row
            self._row_states.append(states)
            for agent, state in enumerate(states):
                raw_by_id = self._agent_raw[agent]
                cid = raw_by_id.get(id(state))
                if cid is None:
                    cid = len(self._agent_states[agent])
                    raw_by_id[id(state)] = cid
                    self._agent_states[agent].append(state)
                self._cid_table.append(cid)
        return row

    # ------------------------------------------------------------------ compilation

    def _compile_pattern(self, pattern: FailurePattern, horizon: int) -> Tuple[int, ...]:
        """Per-round blocked-edge ids for ``pattern`` over ``0 .. horizon - 1``."""
        by_round: List[List[Tuple[int, int]]] = [[] for _ in range(horizon)]
        for (round_index, sender, receiver) in pattern.all_blocked:
            if round_index < horizon:
                by_round[round_index].append((sender, receiver))
        ids = []
        for edges in map(frozenset, by_round):
            bid = self._blocked_ids.get(edges)
            if bid is None:
                bid = len(self._blocked_sets)
                self._blocked_ids[edges] = bid
                self._blocked_sets.append(edges)
            ids.append(bid)
        return tuple(ids)

    def _initial_row(self, preferences: PreferenceVector) -> int:
        row = self._initial.get(preferences)
        if row is None:
            row = self._intern_row(tuple(
                self._intern_state(self.exchange.initial_state(agent, preferences[agent]))
                for agent in range(self.n)
            ))
            self._initial[preferences] = row
        return row

    # ------------------------------------------------------------------ the transition

    def _act_of(self, state: LocalState) -> Action:
        action = self._act.get(state)
        if action is None:
            action = self.protocol.act(state)
            self._act[state] = action
        return action

    def _outgoing_of(self, state: LocalState,
                     action: Action) -> Tuple[Tuple["Message", ...], int]:
        cached = self._outgoing.get(state)
        if cached is None:
            exchange = self.exchange
            outgoing = tuple(exchange.messages_for(state, action))
            if len(outgoing) != self.n:
                raise ProtocolError(
                    f"{exchange.name} produced {len(outgoing)} messages for agent "
                    f"{state.agent}, expected {self.n}"
                )
            bits = sum(exchange.message_bits(message) for message in outgoing)
            cached = (outgoing, bits)
            self._outgoing[state] = cached
        return cached

    def _transition(self, row: int, bid: int, time: int) -> Tuple[int, RoundRecord]:
        """One synchronous round for the class of runs in global state ``row`` with ``bid`` edges blocked.

        Mirrors :func:`repro.simulation.engine.step` exactly (same evaluation
        order, same error behaviour); computed once per distinct
        ``(row, bid)`` pair and reused by every run in the class.
        """
        n = self.n
        exchange = self.exchange
        states = self._row_states[row]
        blocked = self._blocked_sets[bid]
        actions = tuple(self._act_of(states[agent]) for agent in range(n))
        sent: List[Tuple["Message", ...]] = []
        bits_by_sender: List[int] = []
        for sender in range(n):
            outgoing, bits = self._outgoing_of(states[sender], actions[sender])
            sent.append(outgoing)
            bits_by_sender.append(bits)
        delivered: List[Tuple["Message", ...]] = []
        for receiver in range(n):
            inbox: List["Message"] = []
            for sender in range(n):
                message = sent[sender][receiver]
                if message is not None and (sender, receiver) not in blocked:
                    inbox.append(message)
                else:
                    inbox.append(None)
            delivered.append(tuple(inbox))
        new_row = self._intern_row(tuple(
            self._intern_state(exchange.update(states[agent], actions[agent], delivered[agent]))
            for agent in range(n)
        ))
        record = RoundRecord(
            round_index=time,
            actions=actions,
            sent=tuple(sent),
            delivered=tuple(delivered),
            states_after=self._row_states[new_row],
            bits_by_sender=tuple(bits_by_sender),
        )
        return new_row, record

    # ------------------------------------------------------------------ public API

    def simulate_scenarios(self, scenarios: Sequence[Tuple[Sequence[int], Optional[FailurePattern]]],
                           horizon: int) -> List[RunTrace]:
        """Simulate every ``(preferences, pattern)`` scenario for exactly ``horizon`` rounds.

        Returns one :class:`~repro.simulation.trace.RunTrace` per scenario, in
        scenario order, each byte-identical (per-trace pickle) to what
        :func:`~repro.simulation.engine.simulate` produces for the same inputs.
        Each distinct preference vector is validated, and each distinct pattern
        object compiled, once per call.
        """
        if horizon < 0:
            raise ConfigurationError(f"horizon must be non-negative, got {horizon}")
        n = self.n
        # -- distinct inputs, in first-appearance order ----------------------
        prefs_slot: Dict[Tuple[int, ...], int] = {}
        prefs_seen: List[PreferenceVector] = []
        initial_rows: List[int] = []
        pattern_slot: Dict[int, int] = {}
        patterns_seen: List[FailurePattern] = []
        compiled: List[Tuple[int, ...]] = []
        run_prefs = array("i")
        run_patterns = array("i")
        failure_free: Optional[FailurePattern] = None
        for preferences, pattern in scenarios:
            key = tuple(preferences)
            try:
                slot = prefs_slot.get(key)
            except TypeError:  # unhashable entries: let validation name them
                validate_preferences(key, n)
                raise
            if slot is None:
                prefs = validate_preferences(key, n)
                slot = prefs_slot[key] = len(prefs_seen)
                prefs_seen.append(prefs)
                initial_rows.append(self._initial_row(prefs))
            if pattern is None:
                if failure_free is None:
                    failure_free = FailurePattern.failure_free(n)
                pattern = failure_free
            index = pattern_slot.get(id(pattern))
            if index is None:
                if pattern.n != n:
                    raise ConfigurationError(
                        f"failure pattern is for {pattern.n} agents, expected {n}")
                index = pattern_slot[id(pattern)] = len(patterns_seen)
                patterns_seen.append(pattern)
                compiled.append(self._compile_pattern(pattern, horizon))
            run_prefs.append(slot)
            run_patterns.append(index)
        count = len(run_prefs)
        # -- run state: rows per time, blocked-edge ids per round ------------
        # ``rows[:, t]`` is each run's global-state row at time ``t``;
        # ``record_ids[t]`` indexes ``records`` for each run's round ``t``.
        rows = np.empty((count, horizon + 1), dtype=np.int32)
        rows[:, 0] = np.asarray(initial_rows, dtype=np.int32)[
            np.frombuffer(run_prefs, dtype=np.intc)]
        blocked = np.array(compiled, dtype=np.int32).reshape(len(compiled), horizon)[
            np.frombuffer(run_patterns, dtype=np.intc)]
        record_ids = np.empty((horizon, count), dtype=np.int32)
        records: List[RoundRecord] = []
        transitions = self._transitions
        width = max(len(self._blocked_sets), 1)
        # Observability is opt-in and must cost nothing otherwise: the round
        # loop is the build hot path, so both the per-round spans and the
        # progress reporter are gated on an active subscriber up front.
        tracing = _trace.is_active()
        reporter = None
        if BUS.has_subscribers("progress"):
            reporter = ProgressReporter(f"build:{self.protocol.name}",
                                        total=horizon, unit="rounds")
        for time in range(horizon):
            round_span = _trace.NOOP
            if tracing:
                round_span = _trace.span("build.round", "build",
                                         {"round": time, "runs": count})
            with round_span:
                keys = rows[:, time].astype(np.int64) * width + blocked[:, time]
                distinct, first, inverse = np.unique(
                    keys, return_index=True, return_inverse=True)
                round_span.set("distinct", len(distinct))
                # First-appearance order: transitions are computed, states
                # interned and errors raised exactly as a per-run loop would.
                order = np.argsort(first)
                new_rows = array("i")
                for key in distinct[order].tolist():
                    pair = divmod(key, width)
                    hit = transitions.get(pair)
                    if hit is None:
                        hit = self._transition(pair[0], pair[1], time)
                        transitions[pair] = hit
                    new_rows.append(hit[0])
                    records.append(hit[1])
                new_row_of = np.empty(len(distinct), dtype=np.int32)
                new_row_of[order] = np.frombuffer(new_rows, dtype=np.intc)
                record_of = np.empty(len(distinct), dtype=np.int32)
                record_of[order] = np.arange(len(records) - len(distinct), len(records))
                rows[:, time + 1] = new_row_of[inverse]
                record_ids[time] = record_of[inverse]
            if reporter is not None:
                reporter.advance()
        # -- traces: one object-array gather of every run's records ----------
        table = np.empty(len(records), dtype=object)
        table[:] = records
        rounds = table[record_ids.T].tolist()
        protocol_name = self.protocol.name
        exchange_name = self.exchange.name
        row_states = self._row_states
        initial_states = [row_states[row] for row in initial_rows]
        traces = [
            RunTrace(n, protocol_name, exchange_name, prefs_seen[slot],
                     patterns_seen[index], initial_states[slot], run_rounds)
            for slot, index, run_rounds in zip(run_prefs, run_patterns, rounds)
        ]
        self._produced.setdefault(horizon, []).append((tuple(traces), rows))
        return traces

    def simulate_patterns(self, patterns: Iterable[FailurePattern],
                          preference_vectors: Iterable[Sequence[int]],
                          horizon: int) -> List[RunTrace]:
        """Simulate ``patterns × preference_vectors`` (pattern-major, preference-minor)."""
        preference_list = [tuple(vector) for vector in preference_vectors]
        return self.simulate_scenarios(
            [(prefs, pattern) for pattern in patterns for prefs in preference_list],
            horizon,
        )

    def _point_rows(self, traces: Sequence[RunTrace], horizon: int) -> np.ndarray:
        """Every point's global-state row, run-major, read from the stored call rows."""
        pieces = self._produced.setdefault(horizon, [])
        if len(pieces) != 1:
            # Merge once, so later calls read one piece and the per-call rows
            # are freed before partitions() allocates its point-sized arrays.
            merged = (tuple(chain.from_iterable(produced for produced, _ in pieces)),
                      np.concatenate([rows for _, rows in pieces]
                                     or [np.empty((0, horizon + 1), dtype=np.int32)]))
            pieces[:] = [merged]
        produced, all_rows = pieces[0]
        # build_system passes every trace in order; that needs no lookup, whose
        # temporaries would add ~24 MB to the n=5 build's peak RSS.
        if len(traces) == len(produced) and all(map(operator.is_, traces, produced)):
            return all_rows.reshape(-1)
        # Any other selection: find each trace by identity.  The simulator
        # holds every trace it returned, so equal ids mean the same object.
        total = len(produced)
        ids = np.fromiter(map(id, produced), dtype=np.uint64, count=total)
        wanted = np.fromiter(map(id, traces), dtype=np.uint64, count=len(traces))
        sorter = np.argsort(ids)
        slots = np.searchsorted(ids, wanted, sorter=sorter)
        found = slots < total
        found[found] = ids[sorter[slots[found]]] == wanted[found]
        if not found.all():
            trace = traces[int(np.argmin(found))]
            if len(trace.rounds) != horizon:
                raise ConfigurationError(
                    f"trace has {len(trace.rounds)} rounds, expected horizon {horizon}")
            raise ConfigurationError(
                "trace was not produced by this BatchSimulator "
                "(unknown global state tuple)")
        return all_rows[sorter[slots]].reshape(-1)

    def partitions(self, traces: Sequence[RunTrace],
                   horizon: int) -> Dict[int, "AgentPartition"]:
        """Build every agent's :class:`~repro.systems.interpreted.AgentPartition` for ``traces``.

        ``traces`` must all have been produced by *this* simulator with this
        ``horizon``, and must be the runs of the system in run order.  The
        result is identical to what
        :meth:`~repro.systems.interpreted.InterpretedSystem.partition` computes
        — classes numbered by first appearance in run-major point order — but
        reads each point's global-state row from what the round loop stored,
        instead of re-hashing every local state, and takes a few numpy passes:
        the first point of every global-state row once, then per agent the
        first point of every raw class id through the tuple table, a
        first-appearance relabel, and one gather of the per-row labels.
        """
        from ..logic.words import class_id_dtype
        from ..systems.interpreted import AgentPartition

        point_rows = self._point_rows(traces, horizon)
        num_points = len(point_rows)
        # First point of every global-state row, then of every raw class id
        # through the tuple table; rows and ids these traces never reach keep
        # the sentinel and get no class.
        first_row = np.full(len(self._row_states), num_points, dtype=np.intc)
        np.minimum.at(first_row, point_rows, np.arange(num_points, dtype=np.intc))
        table = np.frombuffer(self._cid_table, dtype=np.intc).reshape(-1, self.n)
        result = {}
        for agent in range(self.n):
            column = table[:, agent]
            first = np.full(len(self._agent_states[agent]), num_points, dtype=np.intc)
            np.minimum.at(first, column, first_row)
            present = np.flatnonzero(first < num_points)
            order = present[np.argsort(first[present])]
            relabel = np.zeros(len(first), dtype=class_id_dtype(len(order)))
            relabel[order] = np.arange(len(order), dtype=relabel.dtype)
            states = self._agent_states[agent]
            result[agent] = AgentPartition(
                class_ids=relabel[column][point_rows],
                class_states=tuple(states[raw_id] for raw_id in order.tolist()),
                class_first_indices=tuple(first[order].tolist()),
            )
        return result


def simulate_batch(protocol: ActionProtocol, n: int,
                   scenarios: Sequence[Tuple[Sequence[int], Optional[FailurePattern]]],
                   horizon: int) -> List[RunTrace]:
    """One-shot convenience: batch-simulate ``scenarios`` with a fresh simulator."""
    return BatchSimulator(protocol, n).simulate_scenarios(scenarios, horizon)


def execute_batch(task: BatchTask) -> List[RunTrace]:
    """Execute one batched work item with a fresh simulator.

    Module-level (like :func:`repro.api.executors.execute_task`) so
    process-pool workers can import it by qualified name.
    """
    protocol, n, preference_vectors, patterns, horizon = task
    simulator = BatchSimulator(protocol, n)
    return simulator.simulate_patterns(patterns, preference_vectors, horizon)


def execute_batches(tasks: Sequence[BatchTask]) -> List[RunTrace]:
    """Execute several batches in-process, in order, concatenating the traces.

    Consecutive batches for the same ``(protocol, n)`` pair share one
    simulator (and with it every memoised transition), so splitting a system
    into chunks for scheduling does not lose the in-process sharing.
    """
    traces: List[RunTrace] = []
    simulator: Optional[BatchSimulator] = None
    signature: Optional[Tuple[int, int]] = None
    for task in tasks:
        protocol, n, preference_vectors, patterns, horizon = task
        if simulator is None or signature != (id(protocol), n):
            simulator = BatchSimulator(protocol, n)
            signature = (id(protocol), n)
        traces.extend(simulator.simulate_patterns(patterns, preference_vectors, horizon))
    return traces
