"""The naive communication graph: the differential oracle for ``repro.exchange.CommGraph``.

This is the dict-plus-frozenset representation that ``repro.exchange.commgraph``
used before it packed labels into two ints, kept verbatim (only the imports
are absolute) so ``test_exchange_commgraph_oracle.py`` can check the packed
graph against it query by query.  It is test code, not a second production
path.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.errors import ModelCheckingError
from repro.core.types import AgentId, Value

#: A labelled edge: (round_index, sender, receiver, delivered?).  ``round_index``
#: is the time at which the round starts, i.e. the edge goes from
#: ``(sender, round_index)`` to ``(receiver, round_index + 1)``.
LabelledEdge = Tuple[int, AgentId, AgentId, bool]


class CommGraph:
    """An immutable communication graph at a given time.

    Instances are value objects: equality and hashing consider the number of
    agents, the time, the known preference labels, and the known edge labels.
    """

    __slots__ = ("n", "time", "_prefs", "_labels", "_label_set", "_hash")

    def __init__(self, n: int, time: int,
                 prefs: Mapping[AgentId, Value] | Sequence[Optional[Value]],
                 labels: Iterable[LabelledEdge]) -> None:
        self.n = n
        self.time = time
        if isinstance(prefs, Mapping):
            pref_tuple = tuple(prefs.get(j) for j in range(n))
        else:
            pref_tuple = tuple(prefs)
            if len(pref_tuple) != n:
                raise ModelCheckingError(f"expected {n} preference labels, got {len(pref_tuple)}")
        self._prefs: Tuple[Optional[Value], ...] = pref_tuple
        label_dict: Dict[Tuple[int, AgentId, AgentId], bool] = {}
        for (round_index, sender, receiver, delivered) in labels:
            label_dict[(round_index, sender, receiver)] = bool(delivered)
        self._labels = label_dict
        self._label_set: FrozenSet[LabelledEdge] = frozenset(
            (m, s, r, d) for (m, s, r), d in label_dict.items()
        )
        self._hash = hash((self.n, self.time, self._prefs, self._label_set))

    # ------------------------------------------------------------------ construction

    @classmethod
    def initial(cls, n: int, agent: AgentId, init: Value) -> "CommGraph":
        """The time-0 graph of ``agent``: it knows only its own preference."""
        prefs: Dict[AgentId, Value] = {agent: init}
        return cls(n=n, time=0, prefs=prefs, labels=())

    def advance(self, receiver: AgentId,
                received: Sequence[Optional["CommGraph"]]) -> "CommGraph":
        """The graph after one more round, merging received graphs and observations.

        Parameters
        ----------
        receiver:
            The agent owning this graph (needed to record its direct
            observations of which messages arrived).
        received:
            ``received[j]`` is the graph received from agent ``j`` this round,
            or ``None`` if no message arrived from ``j``.
        """
        if len(received) != self.n:
            raise ModelCheckingError(f"expected {self.n} received slots, got {len(received)}")
        labels: Dict[Tuple[int, AgentId, AgentId], bool] = dict(self._labels)
        prefs: List[Optional[Value]] = list(self._prefs)
        for sender, graph in enumerate(received):
            if graph is None:
                continue
            for (key, delivered) in graph._labels.items():
                labels.setdefault(key, delivered)
            for j, pref in enumerate(graph._prefs):
                if pref is not None and prefs[j] is None:
                    prefs[j] = pref
        # Direct observations: which round-(time + 1) messages reached us.
        for sender in range(self.n):
            labels[(self.time, sender, receiver)] = received[sender] is not None
        return CommGraph(
            n=self.n,
            time=self.time + 1,
            prefs=prefs,
            labels=((m, s, r, d) for (m, s, r), d in labels.items()),
        )

    # ------------------------------------------------------------------ basic queries

    def label(self, round_index: int, sender: AgentId, receiver: AgentId) -> Optional[bool]:
        """The label of the edge for the message ``sender -> receiver`` in round ``round_index + 1``.

        Returns ``True`` (delivered), ``False`` (not delivered), or ``None`` (unknown).
        """
        return self._labels.get((round_index, sender, receiver))

    def preference(self, agent: AgentId) -> Optional[Value]:
        """Agent ``agent``'s initial preference, if known; ``None`` otherwise."""
        return self._prefs[agent]

    def known_preferences(self) -> Dict[AgentId, Value]:
        """All initial preferences recorded in the graph."""
        return {j: v for j, v in enumerate(self._prefs) if v is not None}

    def labelled_edges(self) -> FrozenSet[LabelledEdge]:
        """The set of edges with a known (0/1) label."""
        return self._label_set

    def bit_size(self) -> int:
        """The encoded size of the graph in bits.

        Every edge label takes 2 bits (three values), there are ``n^2`` edges per
        round and ``time`` rounds, plus 2 bits per initial-preference label —
        the ``O(n^2 t)`` per-message cost quoted in Section 8.
        """
        return 2 * self.n * self.n * self.time + 2 * self.n

    # ------------------------------------------------------------------ hears-from machinery

    def heard_frontier(self, anchor_agent: AgentId,
                       anchor_time: Optional[int] = None) -> List[int]:
        """``last_{anchor,j}``: for each agent ``j``, the latest time ``m'`` such that
        ``(j, m')`` hears-into ``(anchor_agent, anchor_time)``.

        The result is a list indexed by agent; ``-1`` means the anchor has never
        heard from that agent at all (not even its initial state).  The anchor
        itself always has frontier ``anchor_time``.

        Only edges whose label is known to be *delivered* in this graph are
        used; for the graph's own anchor point this coincides with the run's
        hears-from relation because receivers record and forward every
        delivery.
        """
        if anchor_time is None:
            anchor_time = self.time
        frontier = [-1] * self.n
        frontier[anchor_agent] = anchor_time
        # Work backwards in time: a delivered edge (j, m) -> (k, m + 1) extends
        # j's frontier to at least m whenever k's frontier is at least m + 1.
        changed = True
        while changed:
            changed = False
            for (round_index, sender, receiver), delivered in self._labels.items():
                if not delivered:
                    continue
                if round_index + 1 > anchor_time:
                    continue
                if frontier[receiver] >= round_index + 1 and frontier[sender] < round_index:
                    frontier[sender] = round_index
                    changed = True
        return frontier

    def hears_from(self, source: Tuple[AgentId, int], anchor_agent: AgentId,
                   anchor_time: Optional[int] = None) -> bool:
        """Whether the point ``source = (j, m')`` hears-into ``(anchor_agent, anchor_time)``."""
        agent, time = source
        frontier = self.heard_frontier(anchor_agent, anchor_time)
        return frontier[agent] >= time

    def restrict(self, anchor_agent: AgentId, anchor_time: int) -> "CommGraph":
        """Reconstruct ``G_{anchor_agent, anchor_time}`` from this graph.

        This is only meaningful when the anchor point hears-into this graph's
        owner (full information then guarantees the owner knows the anchor's
        entire state); the restriction is the sub-graph of labels and
        preferences that could have reached the anchor.
        """
        frontier = self.heard_frontier(anchor_agent, anchor_time)
        prefs: Dict[AgentId, Value] = {
            j: v
            for j, v in enumerate(self._prefs)
            if v is not None and frontier[j] >= 0
        }
        labels = [
            (m, s, r, d)
            for (m, s, r), d in self._labels.items()
            if m + 1 <= frontier[r]
        ]
        return CommGraph(n=self.n, time=anchor_time, prefs=prefs, labels=labels)

    # ------------------------------------------------------------------ knowledge of failures / values

    def known_faulty(self, agent: AgentId, time: int) -> FrozenSet[AgentId]:
        """The set ``f(agent, time, G)``: faulty agents this graph shows ``agent`` knew at ``time``.

        Computed exactly as in Appendix A.2.7: the union of (a) the faulty sets
        known at ``time - 1`` by every agent whose round-``time`` message to
        ``agent`` is recorded as delivered, (b) the agents whose round-``time``
        message to ``agent`` is recorded as *not* delivered, and (c) what
        ``agent`` already knew at ``time - 1``.
        """
        memo: Dict[Tuple[AgentId, int], FrozenSet[AgentId]] = {}
        return self._known_faulty(agent, time, memo)

    def _known_faulty(self, agent: AgentId, time: int,
                      memo: Dict[Tuple[AgentId, int], FrozenSet[AgentId]]) -> FrozenSet[AgentId]:
        if time <= 0:
            return frozenset()
        key = (agent, time)
        if key in memo:
            return memo[key]
        memo[key] = frozenset()  # guard against (impossible) cycles
        result: Set[AgentId] = set(self._known_faulty(agent, time - 1, memo))
        for sender in range(self.n):
            label = self.label(time - 1, sender, agent)
            if label is True:
                result |= self._known_faulty(sender, time - 1, memo)
            elif label is False:
                result.add(sender)
        memo[key] = frozenset(result)
        return memo[key]

    def distributed_faulty(self, agents: Iterable[AgentId], time: int) -> FrozenSet[AgentId]:
        """``D(S, time, G)``: the union of ``f(k, time, G)`` over ``k`` in ``agents``."""
        memo: Dict[Tuple[AgentId, int], FrozenSet[AgentId]] = {}
        result: Set[AgentId] = set()
        for agent in agents:
            result |= self._known_faulty(agent, time, memo)
        return frozenset(result)

    def possibly_nonfaulty(self, agent: AgentId, time: Optional[int] = None) -> FrozenSet[AgentId]:
        """``f̄(agent, time, G)``: the agents this graph does not show to be faulty."""
        if time is None:
            time = self.time
        return frozenset(range(self.n)) - self.known_faulty(agent, time)

    def known_values(self, agent: AgentId, time: int) -> FrozenSet[Value]:
        """``V(agent, time, G)``: the initial values known to ``agent`` at ``time``.

        This is the set of preferences of agents in the hears-from cone of
        ``(agent, time)``; it is empty if the cone is empty (which cannot happen
        for ``time >= 0`` because an agent always knows its own preference, but
        callers treat points outside the owner's cone specially).
        """
        frontier = self.heard_frontier(agent, time)
        values: Set[Value] = set()
        for j in range(self.n):
            if frontier[j] >= 0 and self._prefs[j] is not None:
                values.add(self._prefs[j])
        return frozenset(values)

    # ------------------------------------------------------------------ value-object protocol

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommGraph):
            return NotImplemented
        return (self.n == other.n and self.time == other.time
                and self._prefs == other._prefs and self._label_set == other._label_set)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Serialize through sorted labels: frozenset iteration order is not
        # stable across pickle round trips, and equal graphs must pickle to
        # identical bytes (the executor-equivalence guarantee of repro.api).
        return (self.__class__,
                (self.n, self.time, self._prefs, tuple(sorted(self._label_set))))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CommGraph(n={self.n}, time={self.time}, "
                f"known_prefs={len(self.known_preferences())}, labels={len(self._labels)})")
