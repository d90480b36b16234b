"""0-chains, extracted from run traces.

Section 6 defines a *0-chain* of length ``m`` in a run as a sequence of
distinct agents ``i_0, ..., i_m`` such that

(a) ``i_0`` has initial preference 0,
(b) agent ``i_k`` first decides 0 in round ``k + 1``, and
(c) for ``k >= 1``, ``i_k`` knows at time ``k`` that ``i_{k-1}`` has just
    decided 0.

In every EBA context "knowing that ``i_{k-1}`` just decided 0" is witnessed by
receiving the distinguished decide-0 message from ``i_{k-1}`` in round ``k``,
so chains can be read off a trace: the ground-truth chain relation is what the
correctness proofs (Proposition 6.1) and the safety condition reason about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core.types import AgentId
from ..exchange.messages import DecideNotification, GraphMessage, Message
from ..simulation.trace import RunTrace


@dataclass(frozen=True)
class ZeroChain:
    """A 0-chain: ``agents[k]`` first decides 0 in round ``k + 1``."""

    agents: Tuple[AgentId, ...]

    @property
    def length(self) -> int:
        """The chain's length ``m`` (one less than the number of agents on it)."""
        return len(self.agents) - 1

    @property
    def last_agent(self) -> AgentId:
        return self.agents[-1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ZeroChain(" + " → ".join(str(a) for a in self.agents) + ")"


def zero_deciders_by_round(trace: RunTrace) -> Dict[int, FrozenSet[AgentId]]:
    """Map each round index ``k`` (0-based) to the agents that first decide 0 in round ``k + 1``."""
    result: Dict[int, FrozenSet[AgentId]] = {}
    for record in trace.rounds:
        deciders = frozenset(
            agent for agent in range(trace.n)
            if record.actions[agent].is_decision and record.actions[agent].value == 0
        )
        if deciders:
            result[record.round_index] = deciders
    return result


def _decision_visible(trace: RunTrace, round_index: int, sender: AgentId,
                      receiver: AgentId) -> bool:
    """Whether ``receiver`` can tell from its round-``round_index + 1`` inbox that ``sender`` decided 0.

    For the limited exchanges the witness is the delivered ``DecideNotification(0)``;
    for the full-information exchange any delivered message suffices (the
    receiver can recompute the sender's decision from its graph).
    """
    return reveals_zero_decision(trace.delivered_message(round_index, sender, receiver))


def reveals_zero_decision(message: Message) -> bool:
    """Whether a delivered ``message`` (``None`` = nothing) is the witness of :func:`_decision_visible`."""
    if isinstance(message, DecideNotification):
        return message.value == 0
    return isinstance(message, GraphMessage)


def zero_chains(trace: RunTrace) -> List[ZeroChain]:
    """All maximal-prefix 0-chains present in a trace.

    The result enumerates, for every agent that decides 0 in some round
    ``k + 1``, the chains of length ``k`` ending at that agent (if any).  For
    reporting purposes one chain per endpoint is enough, so we return a single
    witness chain per (endpoint, round) rather than every permutation.
    """
    deciders = zero_deciders_by_round(trace)
    chains: Dict[Tuple[AgentId, int], ZeroChain] = {}

    for round_index in sorted(deciders):
        for agent in sorted(deciders[round_index]):
            if round_index == 0:
                if trace.preferences[agent] == 0:
                    chains[(agent, 0)] = ZeroChain((agent,))
                continue
            # Find a predecessor that decided 0 in the previous round and whose
            # decide message reached this agent.
            for predecessor in sorted(deciders.get(round_index - 1, frozenset())):
                previous = chains.get((predecessor, round_index - 1))
                if previous is None or agent in previous.agents:
                    continue
                if _decision_visible(trace, round_index - 1, predecessor, agent):
                    chains[(agent, round_index)] = ZeroChain(previous.agents + (agent,))
                    break
            else:
                # Also allow a round-0 self start (init 0 discovered late is impossible,
                # but an agent with init 0 that decides late would break the chain
                # structure — record it as a singleton for diagnosis).
                if trace.preferences[agent] == 0:
                    chains[(agent, round_index)] = ZeroChain((agent,))
    return list(chains.values())


def longest_zero_chain(trace: RunTrace) -> Optional[ZeroChain]:
    """The longest 0-chain in the trace (``None`` if no agent ever decides 0)."""
    chains = zero_chains(trace)
    if not chains:
        return None
    return max(chains, key=lambda chain: chain.length)
