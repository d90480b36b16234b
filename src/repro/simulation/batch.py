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
* each failure pattern is pre-compiled into per-round blocked-edge sets
  (interned to small integer ids), so the inner loop never consults
  :meth:`~repro.failures.pattern.FailurePattern.delivered`.

The produced traces are **byte-identical** (per-trace pickle) to the per-run
engine's: the transition function is the same deterministic function, and the
sharing the batch introduces is only ever *across* traces — within one trace no
two states or messages are equal (the agent id and the time are part of every
local state), so the intra-trace object topology that pickling observes is
unchanged.  ``tests/test_simulation_batch.py`` enforces this differentially.

Because the simulator already knows, for every interned global state, each
agent's interned local state, it can also emit the per-agent
:class:`~repro.systems.interpreted.AgentPartition` structures for the finished
system directly (:meth:`BatchSimulator.partitions`): one global-state row id
per point, then a numpy gather and first-appearance relabel of precomputed
class ids per agent, instead of re-hashing every local state.

This module batches the *build* phase, which always runs in-process.  The
check phase leans on the same sharing: the Definition 6.2 safety scan reads
each shared :class:`~repro.simulation.trace.RoundRecord` once, not once per
run (:func:`repro.kbp.safety._chain_receipt_kernel`).
"""

from __future__ import annotations

from array import array
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
    states, transition classes, compiled patterns) across every call, so
    simulating several pattern chunks through the same instance keeps the
    sharing; a fresh instance starts cold.
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
        #: canonical global-state tuples, keyed by their element object ids
        #: (valid because elements are canonical; cheap because ids are ints).
        self._states_intern: Dict[Tuple[int, ...], Tuple[LocalState, ...]] = {}
        #: id(canonical tuple) -> its row in ``_cid_table`` (see partitions()).
        self._tuple_rows: Dict[int, int] = {}
        #: the ``(tuples × n)`` raw class-id table, flat and row-major: row
        #: ``r`` holds each agent's raw class id in global-state tuple ``r``.
        self._cid_table = array("i")
        #: per agent: id(canonical state) -> raw class id, and raw id -> state.
        self._agent_raw: List[Dict[int, int]] = [dict() for _ in range(n)]
        self._agent_states: List[List[LocalState]] = [[] for _ in range(n)]
        #: (id(states tuple), blocked id) -> (new states tuple, RoundRecord).
        self._transitions: Dict[Tuple[int, int], Tuple[Tuple[LocalState, ...], RoundRecord]] = {}
        #: blocked-edge set -> small id, and id -> set (delivery application).
        self._blocked_ids: Dict[_EdgeSet, int] = {}
        self._blocked_sets: List[_EdgeSet] = []
        #: id(pattern) -> (pattern, per-round blocked ids); keyed by identity
        #: so the per-preference reuse of one pattern object is free, and the
        #: pattern reference keeps the id stable.
        self._pattern_rounds: Dict[int, Tuple[FailurePattern, Tuple[int, ...]]] = {}
        #: preference vector -> canonical initial global state tuple.
        self._initial: Dict[PreferenceVector, Tuple[LocalState, ...]] = {}

    # ------------------------------------------------------------------ interning

    def _intern_state(self, state: LocalState) -> LocalState:
        canonical = self._state_intern.get(state)
        if canonical is None:
            self._state_intern[state] = state
            canonical = state
        return canonical

    def _intern_states(self, states: Tuple[LocalState, ...]) -> Tuple[LocalState, ...]:
        key = tuple(map(id, states))
        canonical = self._states_intern.get(key)
        if canonical is None:
            self._states_intern[key] = states
            self._tuple_rows[id(states)] = len(self._tuple_rows)
            for agent, state in enumerate(states):
                raw_by_id = self._agent_raw[agent]
                cid = raw_by_id.get(id(state))
                if cid is None:
                    cid = len(self._agent_states[agent])
                    raw_by_id[id(state)] = cid
                    self._agent_states[agent].append(state)
                self._cid_table.append(cid)
            canonical = states
        return canonical

    # ------------------------------------------------------------------ compilation

    def _compile_pattern(self, pattern: FailurePattern, horizon: int) -> Tuple[int, ...]:
        """Per-round blocked-edge ids for ``pattern`` over ``0 .. horizon - 1``."""
        cached = self._pattern_rounds.get(id(pattern))
        if cached is not None and len(cached[1]) >= horizon:
            return cached[1][:horizon]
        by_round: Dict[int, set] = {}
        for (round_index, sender, receiver) in pattern.all_blocked:
            if round_index < horizon:
                by_round.setdefault(round_index, set()).add((sender, receiver))
        ids = []
        for round_index in range(horizon):
            edges = frozenset(by_round.get(round_index, ()))
            bid = self._blocked_ids.get(edges)
            if bid is None:
                bid = len(self._blocked_sets)
                self._blocked_ids[edges] = bid
                self._blocked_sets.append(edges)
            ids.append(bid)
        compiled = tuple(ids)
        self._pattern_rounds[id(pattern)] = (pattern, compiled)
        return compiled

    def _initial_states(self, preferences: PreferenceVector) -> Tuple[LocalState, ...]:
        states = self._initial.get(preferences)
        if states is None:
            states = self._intern_states(tuple(
                self._intern_state(self.exchange.initial_state(agent, preferences[agent]))
                for agent in range(self.n)
            ))
            self._initial[preferences] = states
        return states

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

    def _transition(self, states: Tuple[LocalState, ...], blocked: _EdgeSet,
                    time: int) -> Tuple[Tuple[LocalState, ...], RoundRecord]:
        """One synchronous round for the class of runs in ``states`` with ``blocked`` edges.

        Mirrors :func:`repro.simulation.engine.step` exactly (same evaluation
        order, same error behaviour); computed once per distinct
        ``(states, blocked)`` pair and reused by every run in the class.
        """
        n = self.n
        exchange = self.exchange
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
        new_states = self._intern_states(tuple(
            self._intern_state(exchange.update(states[agent], actions[agent], delivered[agent]))
            for agent in range(n)
        ))
        record = RoundRecord(
            round_index=time,
            actions=actions,
            sent=tuple(sent),
            delivered=tuple(delivered),
            states_after=new_states,
            bits_by_sender=tuple(bits_by_sender),
        )
        return new_states, record

    # ------------------------------------------------------------------ public API

    def simulate_scenarios(self, scenarios: Sequence[Tuple[Sequence[int], Optional[FailurePattern]]],
                           horizon: int) -> List[RunTrace]:
        """Simulate every ``(preferences, pattern)`` scenario for exactly ``horizon`` rounds.

        Returns one :class:`~repro.simulation.trace.RunTrace` per scenario, in
        scenario order, each byte-identical (per-trace pickle) to what
        :func:`~repro.simulation.engine.simulate` produces for the same inputs.
        """
        if horizon < 0:
            raise ConfigurationError(f"horizon must be non-negative, got {horizon}")
        n = self.n
        current: List[Tuple[LocalState, ...]] = []
        round_ids: List[Tuple[int, ...]] = []
        traces: List[RunTrace] = []
        for preferences, pattern in scenarios:
            prefs = validate_preferences(preferences, n)
            if pattern is None:
                pattern = FailurePattern.failure_free(n)
            if pattern.n != n:
                raise ConfigurationError(
                    f"failure pattern is for {pattern.n} agents, expected {n}")
            states = self._initial_states(prefs)
            current.append(states)
            round_ids.append(self._compile_pattern(pattern, horizon))
            traces.append(RunTrace(
                n=n,
                protocol_name=self.protocol.name,
                exchange_name=self.exchange.name,
                preferences=prefs,
                pattern=pattern,
                initial_states=states,
            ))
        transitions = self._transitions
        blocked_sets = self._blocked_sets
        count = len(traces)
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
                for index in range(count):
                    states = current[index]
                    bid = round_ids[index][time]
                    key = (id(states), bid)
                    hit = transitions.get(key)
                    if hit is None:
                        hit = self._transition(states, blocked_sets[bid], time)
                        transitions[key] = hit
                    new_states, record = hit
                    traces[index].rounds.append(record)
                    current[index] = new_states
            if reporter is not None:
                reporter.advance()
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

    def partitions(self, traces: Sequence[RunTrace],
                   horizon: int) -> Dict[int, "AgentPartition"]:
        """Build every agent's :class:`~repro.systems.interpreted.AgentPartition` for ``traces``.

        ``traces`` must all have been produced by *this* simulator (their
        global-state tuples are interned here), and must be the runs of the
        system in run order.  The result is identical to what
        :meth:`~repro.systems.interpreted.InterpretedSystem.partition` computes
        — classes numbered by first appearance in run-major point order — but
        costs one id lookup per point, instead of re-hashing every local state,
        and a few numpy passes: the first point of every global-state row once,
        then per agent the first point of every raw class id through the tuple
        table, a first-appearance relabel, and one gather of the per-row labels.
        """
        from ..logic.words import class_id_dtype
        from ..systems.interpreted import AgentPartition

        rows = array("q")
        row_of = self._tuple_rows.__getitem__
        try:
            for trace in traces:
                if len(trace.rounds) != horizon:
                    raise ConfigurationError(
                        f"trace has {len(trace.rounds)} rounds, expected horizon {horizon}")
                rows.append(row_of(id(trace.initial_states)))
                rows.extend([row_of(id(record.states_after)) for record in trace.rounds])
        except KeyError:
            raise ConfigurationError(
                "trace was not produced by this BatchSimulator "
                "(unknown global state tuple)") from None
        point_rows = np.frombuffer(rows, dtype=np.int64)
        num_points = len(point_rows)
        # First point of every global-state row, then of every raw class id
        # through the tuple table; rows and ids these traces never reach keep
        # the sentinel and get no class.
        first_row = np.full(len(self._tuple_rows), num_points, dtype=np.intc)
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
