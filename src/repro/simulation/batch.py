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
* inside a transition, each agent's ``update`` is computed once per distinct
  local state and inbox: an agent's next state is a function of its state,
  its action and the messages it received (the ``δ`` of ``E``), its action is
  a function of its state, and each received message is a function of its
  sender's state, so the class ids of the agent and of the senders whose
  message arrived, packed into one integer, name the update
  (:meth:`BatchSimulator._transition`);
* each distinct preference vector is validated, and each distinct failure
  pattern compiled into per-round blocked-edge sets (interned to small integer
  ids), once per call, so the round loop never consults
  :meth:`~repro.failures.pattern.FailurePattern.delivered`;
* the run state lives in numpy arrays — each run's current global-state row
  (the interned tuple's index) and its blocked-edge id per round — and each
  round is one pass over the *distinct* ``row × blocked id`` keys
  (``np.unique``), taken in first-appearance order so that interning, row
  numbering and any :class:`~repro.core.errors.ProtocolError` happen exactly
  as in a per-run loop; every new transition appends its
  :class:`~repro.simulation.trace.RoundRecord` to one simulator-wide record
  list, record ids and new rows are gathered back to the runs, and one
  object-array gather of the record ids yields every run's ``rounds`` list.

The produced traces are **byte-identical** (per-trace pickle) to the per-run
engine's: the transition function is the same deterministic function, and the
sharing the batch introduces is only ever *across* traces — within one trace no
two states or messages are equal (the agent id and the time are part of every
local state), so the intra-trace object topology that pickling observes is
unchanged.  ``tests/test_simulation_batch.py`` enforces this differentially.

Each call keeps what it already computed — its runs' record ids and their
preference/pattern slots — and nothing per point.  From that the simulator
hands a finished system two things instead of having it re-derive them from
the traces:

* a :class:`RunTable` (:meth:`BatchSimulator.run_table`): the runs as shared
  object tables plus small integer index arrays.  The system pickles from it,
  and the Definition 6.2 safety scan reads each shared record once through it
  (:func:`repro.kbp.safety._chain_receipt_kernel`);
* the per-agent :class:`~repro.systems.interpreted.AgentPartition` structures
  (:meth:`BatchSimulator.partitions`): each point's global-state row comes
  from the table (an initial row per preference slot, then the new row of
  each round's record), then a numpy gather and first-appearance relabel of
  precomputed class ids per agent replaces re-hashing every local state.

This module batches the *build* phase, which always runs in-process.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from itertools import chain, repeat, zip_longest
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, TYPE_CHECKING, Tuple, Union

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
    import numpy.typing as npt

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

#: Bits per field of a packed local-update key: raw class ids are ``int32``
#: (the ``array("i")`` class-id table), so a sender's id + 1 fits.
_CID_BITS = 32


def _index_dtype(count: int) -> "np.dtype[Any]":
    """The smallest unsigned dtype for indices into a table of ``count`` entries."""
    # Imported here: repro.logic's package init imports the systems layer,
    # which imports this module.
    from ..logic.words import class_id_dtype
    return class_id_dtype(count)


def _identity_table(objects: Sequence[Any]) -> Tuple[Tuple[Any, ...], "npt.NDArray[Any]"]:
    """The distinct objects of ``objects`` by identity, and each entry's index into them.

    The table is in first-appearance order (``np.unique`` over the ``id()``s,
    relabelled by first index), so it never depends on where objects live in
    memory.
    """
    ids = np.fromiter(map(id, objects), dtype=np.uint64, count=len(objects))
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    table = tuple(objects[index] for index in first[order].tolist())
    return table, rank[inverse.reshape(-1)].astype(_index_dtype(len(table)))


@dataclass(frozen=True, eq=False)
class RunTable:
    """A system's runs as shared-object tables plus small integer index arrays.

    Run ``r`` is the trace ``RunTrace(*headers[h], preferences[p],
    patterns[q], initial_states[s], rounds)`` with ``p = run_preferences[r]``,
    ``q = run_patterns[r]``, ``s = run_initial_states[r]``, ``h =
    run_headers[r]`` (``0`` when ``run_headers`` is ``None``: every run has
    the same ``(n, protocol name, exchange name)`` header), and ``rounds[t]
    = records[record_ids[t, r]]`` for ``t`` below the run's length.
    ``lengths`` is one ``int`` when every run has that many rounds, else one
    entry per run; ``record_ids`` is round-major, ``(max length × runs)``,
    and its entries past a short run's end are padding.

    Every table is in first-appearance order and every index array has the
    smallest unsigned dtype that holds its table's indices (arrays are
    read-only).  The batched engine emits a system's table at build time
    (:meth:`BatchSimulator.run_table`); :meth:`from_runs` derives one from
    any list of traces.  The tables *are* the sharing between runs: traces
    rebuilt by :meth:`traces` share every record, preference vector,
    pattern and initial-state tuple the way the table lists them.
    """

    records: Tuple[RoundRecord, ...]
    record_ids: "npt.NDArray[Any]"
    lengths: Union[int, "npt.NDArray[Any]"]
    preferences: Tuple[PreferenceVector, ...]
    run_preferences: "npt.NDArray[Any]"
    patterns: Tuple[FailurePattern, ...]
    run_patterns: "npt.NDArray[Any]"
    initial_states: Tuple[Tuple[LocalState, ...], ...]
    run_initial_states: "npt.NDArray[Any]"
    headers: Tuple[Tuple[int, str, str], ...]
    run_headers: Optional["npt.NDArray[Any]"] = None

    def __post_init__(self) -> None:
        for index in (self.record_ids, self.lengths, self.run_preferences,
                      self.run_patterns, self.run_initial_states, self.run_headers):
            if isinstance(index, np.ndarray):
                index.flags.writeable = False

    def __reduce__(self):
        return (RunTable, (self.records, self.record_ids, self.lengths,
                           self.preferences, self.run_preferences,
                           self.patterns, self.run_patterns,
                           self.initial_states, self.run_initial_states,
                           self.headers, self.run_headers))

    @property
    def num_runs(self) -> int:
        """The number of runs the table describes."""
        return len(self.run_preferences)

    @classmethod
    def from_runs(cls, runs: Sequence[RunTrace]) -> "RunTable":
        """The table of arbitrary traces, in one first-appearance identity pass.

        Records are listed in round-major order of first appearance; equal
        but distinct objects stay distinct entries, so the table keeps
        exactly the sharing the traces have.
        """
        columns = [trace.rounds for trace in runs]
        run_lengths = np.fromiter(map(len, columns), dtype=np.intp, count=len(columns))
        width = int(run_lengths.max(initial=0))
        rounds = chain.from_iterable(zip_longest(*columns))
        ragged = bool(columns) and int(run_lengths.min()) != width
        if ragged:
            rounds = (record for record in rounds if record is not None)
        records, labels = _identity_table(list(rounds))
        if ragged:
            record_ids = np.zeros((width, len(columns)), dtype=labels.dtype)
            record_ids[np.arange(width)[:, None] < run_lengths] = labels
            lengths: Union[int, "npt.NDArray[Any]"] = run_lengths.astype(_index_dtype(width + 1))
        else:
            record_ids = labels.reshape(width, len(columns))
            lengths = width
        preferences, run_preferences = _identity_table([trace.preferences for trace in runs])
        patterns, run_patterns = _identity_table([trace.pattern for trace in runs])
        initial_states, run_initial_states = _identity_table(
            [trace.initial_states for trace in runs])
        header_slots: Dict[Tuple[int, str, str], int] = {}
        slots = [header_slots.setdefault((trace.n, trace.protocol_name, trace.exchange_name),
                                         len(header_slots))
                 for trace in runs]
        run_headers = None
        if len(header_slots) > 1:
            run_headers = np.asarray(slots, dtype=_index_dtype(len(header_slots)))
        return cls(records, record_ids, lengths, preferences, run_preferences,
                   patterns, run_patterns, initial_states, run_initial_states,
                   tuple(header_slots), run_headers)

    def traces(self) -> List[RunTrace]:
        """The runs as :class:`~repro.simulation.trace.RunTrace` objects, in run order.

        One object-array gather of the record ids yields every run's
        ``rounds`` list; each trace pickles byte-identically to the trace the
        table was made from.
        """
        objects = np.empty(len(self.records), dtype=object)
        objects[:] = self.records
        rounds = objects[self.record_ids.T].tolist()
        if not isinstance(self.lengths, int):
            rounds = [run_rounds[:length]
                      for run_rounds, length in zip(rounds, self.lengths.tolist())]
        headers = self.headers
        header_slots: Iterable[int] = repeat(0)
        if self.run_headers is not None:
            header_slots = self.run_headers.tolist()
        preferences, patterns, initial_states = (
            self.preferences, self.patterns, self.initial_states)
        return [
            RunTrace(*headers[header], preferences[prefs], patterns[pattern],
                     initial_states[initial], run_rounds)
            for header, prefs, pattern, initial, run_rounds in zip(
                header_slots, self.run_preferences.tolist(), self.run_patterns.tolist(),
                self.run_initial_states.tolist(), rounds)
        ]


class _Call(NamedTuple):
    """What one :meth:`BatchSimulator.simulate_scenarios` call keeps for later reads."""

    traces: Tuple[RunTrace, ...]
    #: ``(horizon × runs)``: each run's simulator-wide record index per round.
    record_ids: "npt.NDArray[Any]"
    run_preferences: "npt.NDArray[Any]"
    run_patterns: "npt.NDArray[Any]"
    preferences: Tuple[PreferenceVector, ...]
    patterns: Tuple[FailurePattern, ...]


class BatchSimulator:
    """Round-major batched simulation of many runs of one ``(E, P)`` pair.

    One simulator instance accumulates memoisation state (interned local
    states, transition classes, blocked-edge ids) across every call, so
    simulating several pattern chunks through the same instance keeps the
    sharing; a fresh instance starts cold.  It also keeps every trace it
    returns, with the traces' record ids and preference/pattern slots, for
    :meth:`run_table` and :meth:`partitions`.
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
        #: packed (agent, raw class id, delivered senders' raw class ids) ->
        #: the canonical next local state (see ``_transition``).
        self._updates: Dict[int, LocalState] = {}
        #: (row, blocked id) -> index of its transition's record in ``_records``.
        self._transitions: Dict[Tuple[int, int], int] = {}
        #: every distinct RoundRecord, in the order the transitions were first
        #: computed, and the global-state row each one leads to.
        self._records: List[RoundRecord] = []
        self._record_rows = array("i")
        #: blocked-edge set -> small id, and id -> set (delivery application).
        self._blocked_ids: Dict[_EdgeSet, int] = {}
        self._blocked_sets: List[_EdgeSet] = []
        #: preference vector -> row of its initial global state.
        self._initial: Dict[PreferenceVector, int] = {}
        #: per horizon, what every call with it produced (merged on first read).
        self._produced: Dict[int, List[_Call]] = {}

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

        Each agent's next state is looked up in ``_updates`` by one packed
        ``int``: the agent, its raw class id, then per sender that sender's
        raw class id + 1, or 0 where the inbox slot is ``None``
        (:data:`_CID_BITS` bits a field).  A canonical state fixes the
        agent's action (``_act``) and the messages it sends (``_outgoing``),
        so equal keys are equal ``(state, action, inbox)`` arguments of
        ``exchange.update`` (equal messages from distinct sender states get
        distinct keys: one more call, never a wrong state).  ``update`` is
        called only on a miss, in the same order as the per-run engine, so a
        raised error is the same.
        """
        n = self.n
        exchange = self.exchange
        states = self._row_states[row]
        blocked = self._blocked_sets[bid]
        cids = self._cid_table[row * n:(row + 1) * n]
        actions = tuple(self._act_of(states[agent]) for agent in range(n))
        sent: List[Tuple["Message", ...]] = []
        bits_by_sender: List[int] = []
        for sender in range(n):
            outgoing, bits = self._outgoing_of(states[sender], actions[sender])
            sent.append(outgoing)
            bits_by_sender.append(bits)
        updates = self._updates
        delivered: List[Tuple["Message", ...]] = []
        new_states: List[LocalState] = []
        for receiver in range(n):
            inbox: List["Message"] = []
            key = receiver << _CID_BITS | cids[receiver]
            for sender in range(n):
                message = sent[sender][receiver]
                key <<= _CID_BITS
                if message is not None and (sender, receiver) not in blocked:
                    inbox.append(message)
                    key |= cids[sender] + 1
                else:
                    inbox.append(None)
            received = tuple(inbox)
            delivered.append(received)
            state = updates.get(key)
            if state is None:
                state = updates[key] = self._intern_state(
                    exchange.update(states[receiver], actions[receiver], received))
            new_states.append(state)
        new_row = self._intern_row(tuple(new_states))
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
        # -- run state: current rows, blocked-edge ids per round -------------
        # ``current`` is each run's global-state row at the current time;
        # ``record_ids[t]`` indexes ``_records`` for each run's round ``t``.
        current = np.asarray(initial_rows, dtype=np.int32)[
            np.frombuffer(run_prefs, dtype=np.intc)]
        blocked = np.array(compiled, dtype=np.int32).reshape(len(compiled), horizon)[
            np.frombuffer(run_patterns, dtype=np.intc)]
        record_ids = np.empty((horizon, count), dtype=np.int32)
        records = self._records
        record_rows = self._record_rows
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
                keys = current.astype(np.int64) * width + blocked[:, time]
                distinct, first, inverse = np.unique(
                    keys, return_index=True, return_inverse=True)
                round_span.set("distinct", len(distinct))
                updates_before = len(self._updates)
                # First-appearance order: transitions are computed, states
                # interned and errors raised exactly as a per-run loop would.
                order = np.argsort(first)
                indices = array("i")
                new_rows = array("i")
                for key in distinct[order].tolist():
                    pair = divmod(key, width)
                    index = transitions.get(pair)
                    if index is None:
                        new_row, record = self._transition(pair[0], pair[1], time)
                        index = transitions[pair] = len(records)
                        records.append(record)
                        record_rows.append(new_row)
                    indices.append(index)
                    new_rows.append(record_rows[index])
                round_span.set("updates", len(self._updates) - updates_before)
                record_of = np.empty(len(distinct), dtype=np.int32)
                record_of[order] = np.frombuffer(indices, dtype=np.intc)
                new_row_of = np.empty(len(distinct), dtype=np.int32)
                new_row_of[order] = np.frombuffer(new_rows, dtype=np.intc)
                record_ids[time] = record_of[inverse]
                current = new_row_of[inverse]
            if reporter is not None:
                reporter.advance()
        record_ids = record_ids.astype(_index_dtype(len(records)))
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
        self._produced.setdefault(horizon, []).append(_Call(
            tuple(traces), record_ids,
            np.frombuffer(run_prefs, dtype=np.intc).astype(_index_dtype(len(prefs_seen))),
            np.frombuffer(run_patterns, dtype=np.intc).astype(
                _index_dtype(len(patterns_seen))),
            tuple(prefs_seen), tuple(patterns_seen)))
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

    def _merged(self, horizon: int) -> _Call:
        """Every call with ``horizon``, merged into one (once, on first read)."""
        calls = self._produced.setdefault(horizon, [])
        if len(calls) != 1:
            # Merge once, so later reads take one piece and the per-call
            # arrays are freed before partitions() allocates its point rows.
            # The tables are merged first, so each call's slots are remapped
            # straight into their final smallest dtype (no per-run int64).
            preference_slots: Dict[PreferenceVector, int] = {}
            pattern_slots: Dict[int, int] = {}
            patterns: List[FailurePattern] = []
            remaps = []
            for call in calls:
                pattern_remap = []
                for pattern in call.patterns:
                    slot = pattern_slots.get(id(pattern))
                    if slot is None:
                        slot = pattern_slots[id(pattern)] = len(patterns)
                        patterns.append(pattern)
                    pattern_remap.append(slot)
                remaps.append(([preference_slots.setdefault(prefs, len(preference_slots))
                                for prefs in call.preferences], pattern_remap))
            total = sum(len(call.traces) for call in calls)
            run_preferences = np.empty(total, dtype=_index_dtype(len(preference_slots)))
            run_patterns = np.empty(total, dtype=_index_dtype(len(patterns)))
            start = 0
            for call, (preference_remap, pattern_remap) in zip(calls, remaps):
                stop = start + len(call.traces)
                run_preferences[start:stop] = np.asarray(
                    preference_remap, dtype=run_preferences.dtype)[call.run_preferences]
                run_patterns[start:stop] = np.asarray(
                    pattern_remap, dtype=run_patterns.dtype)[call.run_patterns]
                start = stop
            calls[:] = [_Call(
                tuple(chain.from_iterable(call.traces for call in calls)),
                np.concatenate([call.record_ids for call in calls]
                               or [np.empty((horizon, 0), dtype=np.uint8)], axis=1),
                run_preferences, run_patterns,
                tuple(preference_slots), tuple(patterns))]
        return calls[0]

    @staticmethod
    def _selection(traces: Sequence[RunTrace], produced: Tuple[RunTrace, ...],
                   horizon: int) -> Optional["npt.NDArray[Any]"]:
        """Where each of ``traces`` sits in ``produced`` (``None``: all of them, in order)."""
        # build_system passes every trace in order; that needs no lookup, whose
        # temporaries would add ~24 MB to the n=5 build's peak RSS.
        if len(traces) == len(produced) and all(map(operator.is_, traces, produced)):
            return None
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
        return sorter[slots]

    def run_table(self, traces: Sequence[RunTrace], horizon: int) -> RunTable:
        """The :class:`RunTable` of ``traces``, from what the round loop kept.

        ``traces`` must all have been produced by *this* simulator with this
        ``horizon``; no trace is read.  The record table is every record the
        simulator made, and the preference and pattern tables those of its
        calls with ``horizon``, in the order it first met them: for the fresh
        simulator of :func:`~repro.systems.interpreted.build_system`, exactly
        what the runs use.
        """
        call = self._merged(horizon)
        record_ids, run_preferences, run_patterns = (
            call.record_ids, call.run_preferences, call.run_patterns)
        selection = self._selection(traces, call.traces, horizon)
        if selection is not None:
            record_ids = record_ids[:, selection]
            run_preferences = run_preferences[selection]
            run_patterns = run_patterns[selection]
        row_states = self._row_states
        return RunTable(
            tuple(self._records), record_ids, horizon, call.preferences, run_preferences,
            call.patterns, run_patterns,
            tuple(row_states[self._initial[prefs]] for prefs in call.preferences),
            run_preferences, ((self.n, self.protocol.name, self.exchange.name),))

    def partitions(self, traces: Sequence[RunTrace],
                   horizon: int) -> Dict[int, "AgentPartition"]:
        """Build every agent's :class:`~repro.systems.interpreted.AgentPartition` for ``traces``.

        ``traces`` must all have been produced by *this* simulator with this
        ``horizon``, and must be the runs of the system in run order.  The
        result is identical to what
        :meth:`~repro.systems.interpreted.InterpretedSystem.partition` computes
        — classes numbered by first appearance in run-major point order — but
        derives each point's global-state row from the :class:`RunTable` (a
        run's row at time 0 is its preference slot's initial row, at ``t + 1``
        the new row of its round-``t`` record) instead of re-hashing every
        local state, and takes a few numpy passes: the first point of every
        global-state row once, then per agent the first point of every raw
        class id through the tuple table, a first-appearance relabel, and one
        gather of the per-row labels.
        """
        from ..systems.interpreted import AgentPartition

        table = self.run_table(traces, horizon)
        initial_rows = np.asarray([self._initial[prefs] for prefs in table.preferences],
                                  dtype=np.intc)
        record_rows = np.frombuffer(self._record_rows, dtype=np.intc).copy()
        point_rows = np.empty((table.num_runs, horizon + 1), dtype=np.intc)
        point_rows[:, 0] = initial_rows[table.run_preferences]
        for time in range(horizon):
            point_rows[:, time + 1] = record_rows[table.record_ids[time]]
        point_rows = point_rows.reshape(-1)
        num_points = len(point_rows)
        # First point of every global-state row, then of every raw class id
        # through the tuple table; rows and ids these traces never reach keep
        # the sentinel and get no class.
        first_row = np.full(len(self._row_states), num_points, dtype=np.intc)
        np.minimum.at(first_row, point_rows, np.arange(num_points, dtype=np.intc))
        cid_table = np.frombuffer(self._cid_table, dtype=np.intc).reshape(-1, self.n)
        result = {}
        for agent in range(self.n):
            column = cid_table[:, agent]
            first = np.full(len(self._agent_states[agent]), num_points, dtype=np.intc)
            np.minimum.at(first, column, first_row)
            present = np.flatnonzero(first < num_points)
            order = present[np.argsort(first[present])]
            relabel = np.zeros(len(first), dtype=_index_dtype(len(order)))
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
