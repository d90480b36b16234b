"""The per-run simulation engine: the oracle of the batched engine.

:func:`simulate` steps one run at a time and is deliberately naive; every
production run (systems, sweeps, single runs, the optimality probe) comes from
:class:`~repro.simulation.batch.BatchSimulator`, whose traces the differential
tests pin byte-identical to this engine's.

This implements the transition rule of Section 3 exactly:

1. every agent ``i`` performs the action ``P_i(s_i)`` given by the action
   protocol;
2. every agent chooses its outgoing messages ``μ_i(s_i, P_i(s_i))``;
3. the failure pattern decides which messages arrive (``F(k, i, j)``);
4. every agent updates its state with ``δ_i(s_i, P_i(s_i), received)``.

The engine is deterministic: a run is a pure function of the action protocol,
the information-exchange protocol it constructs, the initial preferences, and
the failure pattern — precisely the paper's statement that "for each initial
state, a run with that initial state is uniquely determined".
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError, ProtocolError
from ..core.types import PreferenceVector, validate_preferences
from ..exchange.base import InformationExchange, LocalState
from ..exchange.messages import Message
from ..failures.pattern import FailurePattern
from ..protocols.base import ActionProtocol
from .trace import ROUND_CAP_FACTOR, RoundRecord, RunTrace, undecided_error


def simulate(protocol: ActionProtocol, n: int, preferences: Sequence[int],
             pattern: Optional[FailurePattern] = None,
             horizon: Optional[int] = None) -> RunTrace:
    """Simulate one run.

    Parameters
    ----------
    protocol:
        The action protocol; it also determines the information-exchange
        protocol via :meth:`~repro.protocols.base.ActionProtocol.make_exchange`.
    n:
        Number of agents.
    preferences:
        The initial preferences, one per agent.
    pattern:
        The failure pattern (defaults to the failure-free pattern).
    horizon:
        If given, simulate exactly this many rounds.  If ``None``, simulate
        until every agent has decided (with a generous safety cap), which is
        the natural stopping point for EBA protocols.

    Returns
    -------
    RunTrace
        The complete record of the run.
    """
    prefs: PreferenceVector = validate_preferences(preferences, n)
    if pattern is None:
        pattern = FailurePattern.failure_free(n)
    if pattern.n != n:
        raise ConfigurationError(f"failure pattern is for {pattern.n} agents, expected {n}")
    protocol.validate_for(n)
    exchange = protocol.make_exchange(n)

    states: List[LocalState] = [exchange.initial_state(agent, prefs[agent]) for agent in range(n)]
    trace = RunTrace(
        n=n,
        protocol_name=protocol.name,
        exchange_name=exchange.name,
        preferences=prefs,
        pattern=pattern,
        initial_states=tuple(states),
    )

    cap = horizon if horizon is not None else ROUND_CAP_FACTOR * (protocol.t + 2)
    time = 0
    while True:
        if horizon is not None:
            if time >= horizon:
                break
        else:
            if all(state.decided is not None for state in states):
                break
            if time >= cap:
                raise undecided_error(protocol, n, pattern)
        states, record = step(exchange, protocol, states, pattern, time)
        trace.rounds.append(record)
        time += 1
    return trace


def step(exchange: InformationExchange, protocol: ActionProtocol,
         states: Sequence[LocalState], pattern: FailurePattern,
         time: int) -> Tuple[List[LocalState], RoundRecord]:
    """Execute one synchronous round starting at ``time`` and return (new states, record)."""
    n = exchange.n
    actions = tuple(protocol.act(states[agent]) for agent in range(n))

    sent: List[Tuple[Message, ...]] = []
    bits_by_sender: List[int] = []
    for sender in range(n):
        outgoing = exchange.messages_for(states[sender], actions[sender])
        if len(outgoing) != n:
            raise ProtocolError(
                f"{exchange.name} produced {len(outgoing)} messages for agent {sender}, expected {n}"
            )
        sent.append(tuple(outgoing))
        bits_by_sender.append(sum(exchange.message_bits(message) for message in outgoing))

    delivered: List[Tuple[Message, ...]] = []
    for receiver in range(n):
        inbox: List[Message] = []
        for sender in range(n):
            message = sent[sender][receiver]
            if message is not None and pattern.delivered(time, sender, receiver):
                inbox.append(message)
            else:
                inbox.append(None)
        delivered.append(tuple(inbox))

    new_states = [
        exchange.update(states[agent], actions[agent], delivered[agent])
        for agent in range(n)
    ]

    record = RoundRecord(
        round_index=time,
        actions=actions,
        sent=tuple(sent),
        delivered=tuple(delivered),
        states_after=tuple(new_states),
        bits_by_sender=tuple(bits_by_sender),
    )
    return new_states, record
