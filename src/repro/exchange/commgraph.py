"""Communication graphs: the compact full-information representation.

Appendix A.2.7 of the paper (following Moses and Tuttle) represents an agent's
full-information state at time ``m`` by a *communication graph* ``G_{i,m}``:

* vertices are the pairs ``(j, m')`` for every agent ``j`` and time ``m' <= m``;
* the edge from ``(j, m' - 1)`` to ``(j', m')`` carries a label in ``{0, 1, ?}``
  recording whether agent ``i`` knows that ``j``'s round-``m'`` message to
  ``j'`` was received (1), knows it was not received (0), or does not know (?);
* each vertex ``(j, 0)`` carries a preference label in ``{0, 1, ?}`` recording
  whether ``i`` knows agent ``j``'s initial preference.

The full-information protocol sends the entire graph every round, so an
agent's graph at time ``m + 1`` merges its own graph, the graphs it received,
and its direct observations of which round-``(m + 1)`` messages arrived.

A graph holds the 2 bits per edge label that :meth:`CommGraph.bit_size`
counts.  At a fixed ``n`` the edge ``sender -> receiver`` of round
``round_index + 1`` is bit ``round_index·n² + sender·n + receiver`` of two ints,
set in ``_known`` when the label is 0 or 1 and in ``_delivered`` when it is 1;
the API speaks ``True``, ``False`` and ``None`` (?).  Graphs received in one
round never disagree on a shared edge, so merging them is an OR.

The derived quantities ``P_opt`` uses are computed on the bits: the hears-from
frontier ``last_ij`` (Definitions A.1 and A.6), the cone restriction
``G_{j,m'}`` for a point that ``i`` has heard from, the faulty sets
``f(j, m', G)`` and ``D(S, m', G)``, and the known values ``V(j, m', G)``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import ModelCheckingError
from ..core.types import AgentId, Value

#: A labelled edge: (round_index, sender, receiver, delivered?).  ``round_index``
#: is the time at which the round starts, i.e. the edge goes from
#: ``(sender, round_index)`` to ``(receiver, round_index + 1)``.
LabelledEdge = Tuple[int, AgentId, AgentId, bool]


@lru_cache(maxsize=None)
def _column_mask(n: int, receiver: AgentId, rounds: int) -> int:
    """The bits of every edge into ``receiver`` in rounds ``0 .. rounds - 1``."""
    column = sum(1 << (sender * n + receiver) for sender in range(n))
    return sum(column << (m * n * n) for m in range(rounds))


def _from_bits(n: int, time: int, prefs: Tuple[Optional[Value], ...],
               known: int, delivered: int) -> "CommGraph":
    """A graph from its five canonical fields (also the unpickling hook)."""
    graph: CommGraph = object.__new__(CommGraph)
    graph._assign(n, time, prefs, known, delivered)
    return graph


class CommGraph:
    """An immutable communication graph at a given time.

    Instances are value objects: equality and hashing consider the number of
    agents, the time, the known preference labels, and the known edge labels.
    """

    __slots__ = ("n", "time", "_prefs", "_known", "_delivered", "_hash")

    def __init__(self, n: int, time: int,
                 prefs: Mapping[AgentId, Value] | Sequence[Optional[Value]],
                 labels: Iterable[LabelledEdge]) -> None:
        if isinstance(prefs, Mapping):
            pref_tuple = tuple(prefs.get(j) for j in range(n))
        else:
            pref_tuple = tuple(prefs)
            if len(pref_tuple) != n:
                raise ModelCheckingError(f"expected {n} preference labels, got {len(pref_tuple)}")
        known = delivered = 0
        for (round_index, sender, receiver, flag) in labels:
            if round_index < 0 or not (0 <= sender < n and 0 <= receiver < n):
                raise ModelCheckingError(f"edge {(round_index, sender, receiver)} outside an {n}-agent graph")
            bit = 1 << ((round_index * n + sender) * n + receiver)
            known |= bit
            delivered = delivered | bit if flag else delivered & ~bit
        self._assign(n, time, pref_tuple, known, delivered)

    def _assign(self, n: int, time: int, prefs: Tuple[Optional[Value], ...],
                known: int, delivered: int) -> None:
        self.n, self.time, self._prefs, self._known, self._delivered = n, time, prefs, known, delivered
        self._hash = hash((n, time, prefs, known, delivered))

    # ------------------------------------------------------------------ construction

    @classmethod
    def initial(cls, n: int, agent: AgentId, init: Value) -> "CommGraph":
        """The time-0 graph of ``agent``: it knows only its own preference."""
        return cls(n=n, time=0, prefs={agent: init}, labels=())

    def advance(self, receiver: AgentId,
                received: Sequence[Optional["CommGraph"]]) -> "CommGraph":
        """The graph after one more round: this graph, owned by ``receiver``, merged
        with ``received[j]``, the graph received from agent ``j`` this round
        (``None`` if nothing arrived), and with ``receiver``'s direct
        observations of which of those messages arrived.
        """
        n = self.n
        if len(received) != n:
            raise ModelCheckingError(f"expected {n} received slots, got {len(received)}")
        known, delivered, prefs = self._known, self._delivered, self._prefs
        base = self.time * n * n
        observed = _column_mask(n, receiver, 1) << base  # our round-(time + 1) in-edges
        arrived = 0
        for sender, graph in enumerate(received):
            if graph is None:
                continue
            arrived |= 1 << (base + sender * n + receiver)
            known |= graph._known
            delivered |= graph._delivered
            if None in prefs:
                prefs = tuple(mine if mine is not None else theirs
                              for mine, theirs in zip(prefs, graph._prefs))
        return _from_bits(n, self.time + 1, prefs, known | observed,
                          (delivered & ~observed) | arrived)

    # ------------------------------------------------------------------ basic queries

    def label(self, round_index: int, sender: AgentId, receiver: AgentId) -> Optional[bool]:
        """The label of the edge for the message ``sender -> receiver`` in round ``round_index + 1``.

        Returns ``True`` (delivered), ``False`` (not delivered), or ``None`` (unknown).
        """
        n = self.n
        bit = (round_index * n + sender) * n + receiver
        if round_index < 0 or not (0 <= sender < n and 0 <= receiver < n) or \
                not self._known >> bit & 1:
            return None
        return bool(self._delivered >> bit & 1)

    def preference(self, agent: AgentId) -> Optional[Value]:
        """Agent ``agent``'s initial preference, if known; ``None`` otherwise."""
        return self._prefs[agent]

    def known_preferences(self) -> Dict[AgentId, Value]:
        """All initial preferences recorded in the graph."""
        return {j: v for j, v in enumerate(self._prefs) if v is not None}

    def labelled_edges(self) -> FrozenSet[LabelledEdge]:
        """The set of edges with a known (0/1) label, decoded from the bits."""
        n, known, edges = self.n, self._known, []
        while known:
            low = known & -known
            round_index, slot = divmod(low.bit_length() - 1, n * n)
            edges.append((round_index, slot // n, slot % n, bool(self._delivered & low)))
            known ^= low
        return frozenset(edges)

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
        n = self.n
        frontier = [-1] * n
        frontier[anchor_agent] = anchor_time
        # Sweep rounds backwards: ``heard`` holds the agents with frontier > m, and
        # a sender outside it with a delivered edge into it has frontier m.
        heard = 1 << anchor_agent
        for m in range(anchor_time - 1, -1, -1):
            rows = self._delivered >> (m * n * n)
            reached = heard
            for sender in range(n):
                if not heard >> sender & 1 and rows >> (sender * n) & heard:
                    frontier[sender] = m
                    reached |= 1 << sender
            heard = reached
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
        n = self.n
        frontier = self.heard_frontier(anchor_agent, anchor_time)
        prefs = tuple(v if frontier[j] >= 0 else None for j, v in enumerate(self._prefs))
        mask = sum(_column_mask(n, receiver, last) for receiver, last in enumerate(frontier))
        return _from_bits(n, anchor_time, prefs, self._known & mask, self._delivered & mask)

    # ------------------------------------------------------------------ knowledge of failures / values

    def known_faulty(self, agent: AgentId, time: int) -> FrozenSet[AgentId]:
        """The set ``f(agent, time, G)``: faulty agents this graph shows ``agent`` knew at ``time``.

        Computed exactly as in Appendix A.2.7: the union of (a) the faulty sets
        known at ``time - 1`` by every agent whose round-``time`` message to
        ``agent`` is recorded as delivered, (b) the agents whose round-``time``
        message to ``agent`` is recorded as *not* delivered, and (c) what
        ``agent`` already knew at ``time - 1``.
        """
        return self.distributed_faulty((agent,), time)

    def distributed_faulty(self, agents: Iterable[AgentId], time: int) -> FrozenSet[AgentId]:
        """``D(S, time, G)``: the union of ``f(k, time, G)`` over ``k`` in ``agents``."""
        n = self.n
        faulty = [0] * n  # f(a, m, G) for every agent a, as agent bitmasks
        for m in range(time):
            known = self._known >> (m * n * n)
            delivered = self._delivered >> (m * n * n)
            step = []
            for receiver in range(n):
                mask = faulty[receiver]
                for sender in range(n):
                    if delivered >> (sender * n + receiver) & 1:
                        mask |= faulty[sender]
                    elif known >> (sender * n + receiver) & 1:
                        mask |= 1 << sender
                step.append(mask)
            faulty = step
        mask = 0
        for agent in agents:
            mask |= faulty[agent]
        return frozenset(j for j in range(n) if mask >> j & 1)

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
        return frozenset(v for j, v in enumerate(self._prefs)
                         if v is not None and frontier[j] >= 0)

    # ------------------------------------------------------------------ value-object protocol

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommGraph):
            return NotImplemented
        return (self._hash == other._hash and self.n == other.n and self.time == other.time
                and (self._prefs, self._known, self._delivered)
                == (other._prefs, other._known, other._delivered))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # The five fields are canonical, so equal graphs pickle to identical
        # bytes (the executor-equivalence guarantee of repro.api).
        return (_from_bits, (self.n, self.time, self._prefs, self._known, self._delivered))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CommGraph(n={self.n}, time={self.time}, "
                f"known_prefs={len(self.known_preferences())}, labels={bin(self._known).count('1')})")
