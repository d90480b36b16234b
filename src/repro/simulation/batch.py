"""The batched, round-major simulation engine.

Every production run comes from here: system construction
(:func:`repro.systems.interpreted.build_system`), sweeps and single runs
(:func:`simulate_tasks`, the body of every executor) and the optimality probe.
:func:`~repro.simulation.engine.simulate`, which steps one run at a time, is
only the oracle the differential tests compare against.

Runs that have seen the same messages so far are in *identical* global states,
so they perform identical actions, send identical messages, and differ only in
which edges the failure pattern blocks next.  :class:`BatchSimulator` advances
**all** runs of a call together, one round at a time, and shares every piece
of work that can be shared:

* the exchange is constructed once per simulator, not once per run;
* ``act`` and ``messages_for`` are evaluated once per *distinct* local state,
  memoised by the agent and its raw class id, so a lookup hashes no state;
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
* each distinct preference vector is validated once per simulator, and each
  distinct failure pattern compiled into per-round blocked-edge sets (interned
  to small integer ids) once per call, so the round loop never consults
  :meth:`~repro.failures.pattern.FailurePattern.delivered`;
* the run state lives in numpy arrays — each run's current global-state row
  (the interned tuple's index) and its blocked-edge id per round — and each
  round is one pass over the *distinct* ``row × blocked id`` keys
  (``np.unique``), taken in first-appearance order so that interning, row
  numbering and any :class:`~repro.core.errors.ProtocolError` happen exactly
  as in a per-run loop; every new transition appends its
  :class:`~repro.simulation.trace.RoundRecord` to one simulator-wide record
  list, and record ids and new rows are gathered back to the runs;
* with no horizon, a run leaves the round loop at the first time its
  global-state row is *done* (every agent decided: one flag per row, computed
  once), as the per-run engine stops, so the call's record ids are ragged.

Every call then builds its traces through one :class:`RunTable`, whose
:meth:`~RunTable.traces` is one object-array gather of the record ids.  The
produced traces are **byte-identical** (per-trace pickle) to the per-run
engine's: the transition function is the same deterministic function, and the
sharing the batch introduces is only ever *across* traces — within one trace no
two states or messages are equal (the agent id and the time are part of every
local state), so the intra-trace object topology that pickling observes is
unchanged.  ``tests/test_simulation_batch.py`` enforces this differentially.

Each fixed-horizon call keeps its runs' record ids and preference/pattern
slots, and nothing per point.  From that the simulator hands a finished
system two things instead of having it re-derive them from the traces:

* a :class:`RunTable` (:meth:`BatchSimulator.run_table`): the runs as shared
  object tables plus small integer index arrays.  The system pickles from it,
  and the Definition 6.2 safety scan reads each shared record once through it
  (:func:`repro.kbp.safety._chain_receipt_kernel`);
* the per-agent :class:`~repro.systems.interpreted.AgentPartition` structures
  (:meth:`BatchSimulator.partitions`): each point's global-state row comes
  from the table (an initial row per preference slot, then the new row of
  each round's record), then a numpy gather and first-appearance relabel of
  precomputed class ids per agent replaces re-hashing every local state.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from itertools import chain, groupby, repeat, zip_longest
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, TYPE_CHECKING, Tuple, Union

import numpy as np

from ..core.cancel import checkpoint
from ..core.errors import ConfigurationError, ProtocolError
from ..core.types import Action, PreferenceVector, validate_preferences
from ..exchange.base import InformationExchange, LocalState
from ..failures.pattern import FailurePattern
from ..obs import trace as _trace
from ..obs.bus import BUS, ProgressReporter
from ..protocols.base import ActionProtocol
from .trace import ROUND_CAP_FACTOR, RoundRecord, RunTrace, undecided_error

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy.typing as npt

    from ..exchange.messages import Message
    from ..systems.interpreted import AgentPartition

#: The pure-data description of one simulation run:
#: ``(protocol, n, preferences, pattern, horizon)``.
RunTask = Tuple[ActionProtocol, int, Sequence[int], Optional[FailurePattern], Optional[int]]

#: A blocked-edge set for one round: the ``(sender, receiver)`` pairs whose
#: message is dropped.
_EdgeSet = frozenset

#: Bits per field of a packed ``(agent, raw class id, ...)`` memo key: raw
#: class ids are ``int32`` (the ``array("i")`` class-id table), so a sender's
#: id + 1 fits.
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
        headers: Iterable[Tuple[int, str, str]] = repeat(self.headers[0])
        if self.run_headers is not None:
            headers = map(self.headers.__getitem__, self.run_headers.tolist())
        preferences, patterns, initial_states = (
            self.preferences, self.patterns, self.initial_states)
        return [
            RunTrace(n, protocol_name, exchange_name, preferences[prefs], patterns[pattern],
                     initial_states[initial], run_rounds)
            for (n, protocol_name, exchange_name), prefs, pattern, initial, run_rounds in zip(
                headers, self.run_preferences.tolist(), self.run_patterns.tolist(),
                self.run_initial_states.tolist(), rounds)
        ]


class _Call(NamedTuple):
    """What one fixed-horizon :meth:`BatchSimulator.simulate_scenarios` call keeps for later reads.

    Every index is simulator-wide: into ``_records``, ``_preferences`` and
    ``_patterns``.
    """

    traces: Tuple[RunTrace, ...]
    #: ``(horizon × runs)``: each run's record index per round.
    record_ids: "npt.NDArray[Any]"
    run_preferences: "npt.NDArray[Any]"
    run_patterns: "npt.NDArray[Any]"


class BatchSimulator:
    """Round-major batched simulation of many runs of one ``(E, P)`` pair.

    One simulator instance accumulates memoisation state (interned local
    states, transition classes, blocked-edge ids) across every call, so
    simulating several pattern chunks through the same instance keeps the
    sharing; a fresh instance starts cold.  It also keeps every preference
    vector and pattern it meets, and every trace a fixed-horizon call
    returns with the traces' record ids and preference/pattern slots, for
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
        #: packed (agent, raw class id) -> the action in that local state.
        self._act: Dict[int, Action] = {}
        #: packed (agent, raw class id) -> (outgoing message tuple, bits put
        #: on the wire).
        self._outgoing: Dict[int, Tuple[Tuple["Message", ...], int]] = {}
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
        #: per row: whether every agent of the global state has decided
        #: (filled on demand by the until-decided round loop).
        self._row_done = array("b")
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
        #: blocked-edge set -> small id, and id -> set (delivery application);
        #: id 0 is the empty set.
        self._blocked_ids: Dict[_EdgeSet, int] = {frozenset(): 0}
        self._blocked_sets: List[_EdgeSet] = [frozenset()]
        #: every preference vector met, with the row of its initial global
        #: state, and each one's slot by the tuple it was given as.
        self._preferences: List[PreferenceVector] = []
        self._initial_rows: List[int] = []
        self._preference_slots: Dict[Tuple[int, ...], int] = {}
        #: every failure pattern met (held, so ids stay unique), and each
        #: one's slot by id.
        self._patterns: List[FailurePattern] = []
        self._pattern_slots: Dict[int, int] = {}
        self._failure_free = FailurePattern.failure_free(n)
        #: per horizon, what every call with it produced (merged on first read).
        self._produced: Dict[int, List[_Call]] = {}

    # ------------------------------------------------------------------ interning

    def _intern_state(self, state: LocalState) -> LocalState:
        return self._state_intern.setdefault(state, state)

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

    def _compile_pattern(self, pattern: FailurePattern, rounds: int) -> List[int]:
        """Per-round blocked-edge ids for ``pattern`` over ``0 .. rounds - 1``."""
        by_round: Dict[int, List[Tuple[int, int]]] = {}
        for (round_index, sender, receiver) in pattern.all_blocked:
            if round_index < rounds:
                by_round.setdefault(round_index, []).append((sender, receiver))
        ids = [0] * rounds
        for round_index, edges in by_round.items():
            key = frozenset(edges)
            bid = self._blocked_ids.get(key)
            if bid is None:
                bid = self._blocked_ids[key] = len(self._blocked_sets)
                self._blocked_sets.append(key)
            ids[round_index] = bid
        return ids

    def _new_preferences(self, key: Tuple[int, ...]) -> int:
        """Validate a preference vector met for the first time; its new slot."""
        preferences = validate_preferences(key, self.n)
        slot = self._preference_slots[key] = len(self._preferences)
        self._preferences.append(preferences)
        self._initial_rows.append(self._intern_row(tuple(
            self._intern_state(self.exchange.initial_state(agent, preferences[agent]))
            for agent in range(self.n)
        )))
        return slot

    def _pattern_slot(self, pattern: FailurePattern) -> int:
        """The slot of ``pattern`` (by identity), checked on first sight."""
        slot = self._pattern_slots.get(id(pattern))
        if slot is None:
            if pattern.n != self.n:
                raise ConfigurationError(
                    f"failure pattern is for {pattern.n} agents, expected {self.n}")
            slot = self._pattern_slots[id(pattern)] = len(self._patterns)
            self._patterns.append(pattern)
        return slot

    def _table(self, record_ids: "npt.NDArray[Any]", lengths: Union[int, "npt.NDArray[Any]"],
               run_preferences: "npt.NDArray[Any]",
               run_patterns: "npt.NDArray[Any]") -> RunTable:
        """A :class:`RunTable` over the simulator-wide record, preference and pattern tables."""
        run_preferences = run_preferences.astype(_index_dtype(len(self._preferences)),
                                                 copy=False)
        return RunTable(
            tuple(self._records), record_ids, lengths, tuple(self._preferences),
            run_preferences, tuple(self._patterns),
            run_patterns.astype(_index_dtype(len(self._patterns)), copy=False),
            tuple(self._row_states[row] for row in self._initial_rows), run_preferences,
            ((self.n, self.protocol.name, self.exchange.name),))

    # ------------------------------------------------------------------ the transition

    def _messages(self, state: LocalState,
                  action: Action) -> Tuple[Tuple["Message", ...], int]:
        """The messages ``state`` sends with ``action``, and the bits they put on the wire."""
        exchange = self.exchange
        outgoing = tuple(exchange.messages_for(state, action))
        if len(outgoing) != self.n:
            raise ProtocolError(
                f"{exchange.name} produced {len(outgoing)} messages for agent "
                f"{state.agent}, expected {self.n}"
            )
        return outgoing, sum(exchange.message_bits(message) for message in outgoing)

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
        raised error is the same.  The action and the outgoing messages are
        memoised by the agent and its raw class id alone, which name the
        canonical state without hashing it.
        """
        n = self.n
        exchange = self.exchange
        states = self._row_states[row]
        blocked = self._blocked_sets[bid]
        cids = self._cid_table[row * n:(row + 1) * n].tolist()
        keys = [agent << _CID_BITS | cid for agent, cid in enumerate(cids)]
        acts = self._act
        actions: List[Action] = []
        for agent, key in enumerate(keys):
            action = acts.get(key)
            if action is None:
                action = acts[key] = self.protocol.act(states[agent])
            actions.append(action)
        outgoing_of = self._outgoing
        sent: List[Tuple["Message", ...]] = []
        bits_by_sender: List[int] = []
        for sender, key in enumerate(keys):
            cached = outgoing_of.get(key)
            if cached is None:
                cached = outgoing_of[key] = self._messages(states[sender], actions[sender])
            sent.append(cached[0])
            bits_by_sender.append(cached[1])
        updates = self._updates
        delivered: List[Tuple["Message", ...]] = []
        new_states: List[LocalState] = []
        for receiver in range(n):
            inbox: List["Message"] = []
            key = keys[receiver]
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
            actions=tuple(actions),
            sent=tuple(sent),
            delivered=tuple(delivered),
            states_after=self._row_states[new_row],
            bits_by_sender=tuple(bits_by_sender),
        )
        return new_row, record

    def _done(self, rows: "npt.NDArray[Any]") -> "npt.NDArray[np.bool_]":
        """Whether every agent has decided in each global-state row of ``rows``."""
        done = self._row_done
        for states in self._row_states[len(done):]:
            done.append(all(state.decided is not None for state in states))
        return np.frombuffer(done, dtype=np.bool_)[rows]

    def _round(self, keys: "npt.NDArray[Any]", width: int, time: int,
               span: Any) -> Tuple["npt.NDArray[Any]", "npt.NDArray[Any]"]:
        """One round of the runs at ``row * width + blocked id`` keys: their records and new rows."""
        distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        span.set("distinct", len(distinct))
        updates_before = len(self._updates)
        records = self._records
        record_rows = self._record_rows
        transitions = self._transitions
        # First-appearance order: transitions are computed, states interned
        # and errors raised exactly as a per-run loop would.
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
        span.set("updates", len(self._updates) - updates_before)
        record_of = np.empty(len(distinct), dtype=np.int32)
        record_of[order] = np.frombuffer(indices, dtype=np.intc)
        new_row_of = np.empty(len(distinct), dtype=np.int32)
        new_row_of[order] = np.frombuffer(new_rows, dtype=np.intc)
        return record_of[inverse], new_row_of[inverse]

    # ------------------------------------------------------------------ public API

    def simulate_scenarios(self, scenarios: Sequence[Tuple[Sequence[int], Optional[FailurePattern]]],
                           horizon: Optional[int] = None) -> List[RunTrace]:
        """Simulate every ``(preferences, pattern)`` scenario, in scenario order.

        With a ``horizon``, every run takes exactly ``horizon`` rounds.  With
        ``None``, each run stops at the first time every agent has decided;
        if some run is still undecided after ``ROUND_CAP_FACTOR·(t + 2)``
        rounds, the first such run in scenario order raises the per-run
        engine's :class:`~repro.core.errors.ProtocolError`.

        Returns one :class:`~repro.simulation.trace.RunTrace` per scenario,
        each byte-identical (per-trace pickle) to what
        :func:`~repro.simulation.engine.simulate` produces for the same inputs.
        Each distinct preference vector is validated once per simulator, and
        each distinct pattern object compiled once per call.  Each round
        starts with a :func:`~repro.core.cancel.checkpoint`.
        """
        if horizon is not None and horizon < 0:
            raise ConfigurationError(f"horizon must be non-negative, got {horizon}")
        rounds = horizon if horizon is not None else ROUND_CAP_FACTOR * (self.protocol.t + 2)
        # -- each run's preference and pattern slot; each distinct pattern
        # object of the call compiled once --------------------------------
        preference_slots = self._preference_slots
        call_patterns: Dict[int, int] = {}
        compiled: Dict[int, List[int]] = {}
        run_prefs = array("i")
        run_patterns = array("i")
        for preferences, pattern in scenarios:
            key = tuple(preferences)
            try:
                slot = preference_slots.get(key)
            except TypeError:  # unhashable entries: let validation name them
                validate_preferences(key, self.n)
                raise
            if slot is None:
                slot = self._new_preferences(key)
            if pattern is None:
                pattern = self._failure_free
            index = call_patterns.get(id(pattern))
            if index is None:
                index = call_patterns[id(pattern)] = self._pattern_slot(pattern)
                compiled[index] = self._compile_pattern(pattern, rounds)
            run_prefs.append(slot)
            run_patterns.append(index)
        count = len(run_prefs)
        pref_slots = np.frombuffer(run_prefs, dtype=np.intc)
        pattern_slots = np.frombuffer(run_patterns, dtype=np.intc)
        # -- run state: the runs still in the loop, in scenario order, with
        # their current global-state rows and blocked-edge ids per round ----
        live = np.arange(count)
        current = np.asarray(self._initial_rows, dtype=np.int32)[pref_slots]
        blocked_of_pattern = np.zeros((len(self._patterns), rounds), dtype=np.int32)
        for slot, ids in compiled.items():
            blocked_of_pattern[slot] = ids
        blocked = blocked_of_pattern[pattern_slots]
        lengths = np.full(count, rounds, dtype=np.intp)
        #: per round, the runs still in the loop and their indices into ``_records``.
        columns: List[Tuple["npt.NDArray[Any]", "npt.NDArray[Any]"]] = []
        width = len(self._blocked_sets)
        # Observability is opt-in and must cost nothing otherwise: the round
        # loop is the build hot path, so both the per-round spans and the
        # progress reporter are gated on an active subscriber up front.
        tracing = _trace.is_active()
        reporter = None
        if BUS.has_subscribers("progress"):
            reporter = ProgressReporter(f"build:{self.protocol.name}",
                                        total=horizon, unit="rounds")
        for time in range(rounds + 1):
            if horizon is None:
                done = self._done(current)
                if done.any():
                    lengths[live[done]] = time
                    undecided = ~done
                    live, current, blocked = live[undecided], current[undecided], blocked[undecided]
                if not len(live):
                    break
                if time == rounds:
                    raise undecided_error(self.protocol, self.n,
                                          self._patterns[run_patterns[int(live[0])]])
            elif time == rounds:
                break
            checkpoint()
            round_span = _trace.NOOP
            if tracing:
                round_span = _trace.span("build.round", "build",
                                         {"round": time, "runs": len(live)})
            with round_span:
                record_of_run, current = self._round(
                    current.astype(np.int64) * width + blocked[:, time], width, time, round_span)
            columns.append((live, record_of_run))
            if reporter is not None:
                reporter.advance()
        # Round-major; 0 past a run's end.
        record_ids = np.zeros((len(columns), count), dtype=_index_dtype(len(self._records)))
        for time, (runs, column) in enumerate(columns):
            record_ids[time, runs] = column
        length: Union[int, "npt.NDArray[Any]"] = len(columns)
        if (lengths != length).any():
            length = lengths.astype(_index_dtype(len(columns) + 1))
        table = self._table(record_ids, length, pref_slots, pattern_slots)
        traces = table.traces()
        if horizon is not None:
            self._produced.setdefault(horizon, []).append(_Call(
                tuple(traces), table.record_ids, table.run_preferences, table.run_patterns))
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
            none = np.empty(0, dtype=np.uint8)
            calls[:] = [_Call(
                tuple(chain.from_iterable(call.traces for call in calls)),
                np.concatenate([call.record_ids for call in calls]
                               or [np.empty((horizon, 0), dtype=np.uint8)], axis=1),
                np.concatenate([call.run_preferences for call in calls] or [none]),
                np.concatenate([call.run_patterns for call in calls] or [none]))]
        return calls[0]

    @staticmethod
    def _selection(traces: Sequence[RunTrace], produced: Tuple[RunTrace, ...],
                   horizon: int) -> Union[slice, "npt.NDArray[Any]"]:
        """Where each of ``traces`` sits in ``produced``, as an index."""
        # build_system passes every trace in order; that needs no lookup, whose
        # temporaries would add ~24 MB to the n=5 build's peak RSS.
        if len(traces) == len(produced) and all(map(operator.is_, traces, produced)):
            return slice(None)
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
        ``horizon``; no trace is read.  The tables are every record,
        preference vector and pattern the simulator met, in the order it
        first met them: for the fresh simulator of
        :func:`~repro.systems.interpreted.build_system`, exactly what the runs
        use.
        """
        call = self._merged(horizon)
        selection = self._selection(traces, call.traces, horizon)
        return self._table(call.record_ids[:, selection], horizon,
                           call.run_preferences[selection], call.run_patterns[selection])

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
        initial_rows = np.asarray(self._initial_rows, dtype=np.intc)
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


def simulate_tasks(tasks: Sequence[RunTask]) -> List[RunTrace]:
    """Simulate run tasks in task order: the body of every executor.

    Consecutive tasks of the same ``(protocol, n)`` share one
    :class:`BatchSimulator`, and with it every memoised transition; each
    stretch of them with one horizon is one
    :meth:`~BatchSimulator.simulate_scenarios` call.  Each trace is
    byte-identical (per-trace pickle) to ``simulate(protocol, n, preferences,
    pattern, horizon=horizon)``.
    """
    traces: List[RunTrace] = []
    simulator: Optional[BatchSimulator] = None
    # Keyed by identity: ``tasks`` holds every protocol, so ids are unique.
    for _, stretch in groupby(tasks, key=lambda task: (id(task[0]), task[1], task[4])):
        group = list(stretch)
        protocol, n, _, _, horizon = group[0]
        if simulator is None or simulator.protocol is not protocol or simulator.n != n:
            simulator = BatchSimulator(protocol, n)
        traces.extend(simulator.simulate_scenarios([task[2:4] for task in group], horizon))
    return traces
