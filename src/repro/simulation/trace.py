"""Run traces: the complete record of a simulated run.

A :class:`RunTrace` is the library's concrete counterpart of the paper's run
``r``: it records, for every round, the actions performed, the messages sent,
the messages delivered, and the resulting local states, together with the
initial preferences and the failure pattern that generated the run.  All of the
analysis (specification checking, metrics, 0-chain extraction, dominance) works
on traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, TYPE_CHECKING, Tuple

from ..core.errors import ProtocolError, ReproError
from ..core.types import Action, AgentId, PreferenceVector, Value
from ..exchange.base import LocalState
from ..exchange.messages import Message
from ..failures.pattern import FailurePattern

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..protocols.base import ActionProtocol

#: A workload item: one initial global state (preferences plus failure pattern).
Scenario = Tuple[Sequence[int], FailurePattern]

#: Hard cap on simulated rounds when no horizon is given, expressed as a
#: multiplier over ``t + 2`` (the paper's termination bound); it only exists to
#: turn a non-terminating (buggy) protocol into an exception instead of a hang.
ROUND_CAP_FACTOR = 8


def undecided_error(protocol: "ActionProtocol", n: int,
                    pattern: FailurePattern) -> ProtocolError:
    """The error both engines raise for a run still undecided at the round cap."""
    return ProtocolError(
        f"{protocol.name} did not terminate within {ROUND_CAP_FACTOR * (protocol.t + 2)} "
        f"rounds (n={n}, t={protocol.t}, pattern={pattern.describe()})"
    )


@dataclass(frozen=True)
class RoundRecord:
    """Everything that happened in a single round.

    Attributes
    ----------
    round_index:
        The time at which the round starts; the paper calls this round
        ``round_index + 1`` (rounds are 1-based in prose, times are 0-based).
    actions:
        ``actions[i]`` is the action agent ``i`` performed this round.
    sent:
        ``sent[i][j]`` is the message agent ``i`` addressed to agent ``j``
        (before the failure pattern is applied); ``None`` is ``⊥``.
    delivered:
        ``delivered[j][i]`` is the message agent ``j`` actually received from
        agent ``i`` (``None`` if omitted or never sent).
    states_after:
        The local states at time ``round_index + 1``.
    bits_by_sender:
        ``bits_by_sender[i]`` is the number of bits agent ``i`` put on the wire
        this round (counting every addressed copy, including the self-copy).
    """

    round_index: int
    actions: Tuple[Action, ...]
    sent: Tuple[Tuple[Message, ...], ...]
    delivered: Tuple[Tuple[Message, ...], ...]
    states_after: Tuple[LocalState, ...]
    bits_by_sender: Tuple[int, ...]

    @property
    def round_number(self) -> int:
        """The 1-based round number used in the paper's prose."""
        return self.round_index + 1


@dataclass
class RunTrace:
    """A complete simulated run of an ``(E, P)`` pair against a failure pattern."""

    n: int
    protocol_name: str
    exchange_name: str
    preferences: PreferenceVector
    pattern: FailurePattern
    initial_states: Tuple[LocalState, ...]
    rounds: List[RoundRecord] = field(default_factory=list)

    # ------------------------------------------------------------------ structure

    @property
    def horizon(self) -> int:
        """The number of simulated rounds (the final time index)."""
        return len(self.rounds)

    @property
    def nonfaulty(self) -> frozenset[AgentId]:
        """The nonfaulty agents of the run's failure pattern."""
        return self.pattern.nonfaulty

    def state_of(self, agent: AgentId, time: int) -> LocalState:
        """The local state of ``agent`` at ``time`` (0 = initial state)."""
        if time == 0:
            return self.initial_states[agent]
        if not 1 <= time <= self.horizon:
            raise ReproError(f"time {time} outside 0..{self.horizon}")
        return self.rounds[time - 1].states_after[agent]

    def states_at(self, time: int) -> Tuple[LocalState, ...]:
        """All local states at ``time``."""
        if time == 0:
            return self.initial_states
        return self.rounds[time - 1].states_after

    def action_of(self, agent: AgentId, round_index: int) -> Action:
        """The action of ``agent`` in the round starting at time ``round_index``."""
        return self.rounds[round_index].actions[agent]

    def __iter__(self) -> Iterator[RoundRecord]:
        return iter(self.rounds)

    # ------------------------------------------------------------------ decisions

    def decision_round(self, agent: AgentId) -> Optional[int]:
        """The 1-based round in which ``agent`` first decides, or ``None``."""
        for record in self.rounds:
            if record.actions[agent].is_decision:
                return record.round_number
        return None

    def decision_value(self, agent: AgentId) -> Optional[Value]:
        """The value ``agent`` first decides, or ``None`` if it never decides."""
        for record in self.rounds:
            action = record.actions[agent]
            if action.is_decision:
                return action.value
        return None

    def decisions(self) -> Dict[AgentId, Tuple[Optional[int], Optional[Value]]]:
        """Map every agent to its (first decision round, decided value)."""
        return {
            agent: (self.decision_round(agent), self.decision_value(agent))
            for agent in range(self.n)
        }

    def decided_agents(self) -> frozenset[AgentId]:
        """The agents that decide at some point in the trace."""
        return frozenset(agent for agent in range(self.n)
                         if self.decision_round(agent) is not None)

    def all_decided(self) -> bool:
        """Whether every agent (faulty or not) decides in the trace."""
        return len(self.decided_agents()) == self.n

    def all_nonfaulty_decided(self) -> bool:
        """Whether every nonfaulty agent decides in the trace."""
        return self.nonfaulty <= self.decided_agents()

    def last_decision_round(self, nonfaulty_only: bool = False) -> Optional[int]:
        """The latest first-decision round among (optionally only nonfaulty) agents."""
        agents = self.nonfaulty if nonfaulty_only else frozenset(range(self.n))
        rounds = [self.decision_round(agent) for agent in agents]
        if any(r is None for r in rounds):
            return None
        return max(rounds) if rounds else None

    # ------------------------------------------------------------------ communication accounting

    def total_bits(self, include_self: bool = True) -> int:
        """The total number of bits put on the wire in the run.

        ``include_self=False`` excludes each agent's copy to itself, matching
        the "sends it to all the other agents" accounting of Proposition 8.1.
        """
        total = 0
        for record in self.rounds:
            for sender in range(self.n):
                for receiver in range(self.n):
                    if not include_self and sender == receiver:
                        continue
                    message = record.sent[sender][receiver]
                    if message is None:
                        continue
                    total += message.bit_size(self.n)
        return total

    def total_messages(self, include_self: bool = True) -> int:
        """The total number of non-``⊥`` messages addressed in the run."""
        total = 0
        for record in self.rounds:
            for sender in range(self.n):
                for receiver in range(self.n):
                    if not include_self and sender == receiver:
                        continue
                    if record.sent[sender][receiver] is not None:
                        total += 1
        return total

    def delivered_message(self, round_index: int, sender: AgentId,
                          receiver: AgentId) -> Message:
        """The message ``receiver`` got from ``sender`` in the given round (or ``None``)."""
        return self.rounds[round_index].delivered[receiver][sender]

    # ------------------------------------------------------------------ cosmetics

    def summary(self) -> str:
        """A one-line human-readable summary of the run."""
        decided = self.decisions()
        decisions = ", ".join(
            f"{agent}→{value}@r{round_number}" if round_number is not None else f"{agent}→undecided"
            for agent, (round_number, value) in sorted(decided.items())
        )
        return (f"{self.protocol_name} on {self.exchange_name}, n={self.n}, "
                f"{self.pattern.describe()}: {decisions}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RunTrace({self.protocol_name}, n={self.n}, horizon={self.horizon}, "
                f"pattern={self.pattern.describe()!r})")
