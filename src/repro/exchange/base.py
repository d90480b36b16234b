"""The information-exchange protocol interface (the ``E`` of the paper).

Section 3 defines a local information-exchange protocol for agent ``i`` as a
tuple ``⟨L_i, I_i, A_i, M_i, μ_i, δ_i⟩``:

* ``L_i`` — local states,
* ``I_i`` — initial states,
* ``M_i`` — messages,
* ``μ_i(s, a)`` — which message to send to each agent when performing action
  ``a`` in state ``s``,
* ``δ_i(s, a, (m_1, ..., m_n))`` — the state update given the action performed
  and the messages received in the round.

All three exchanges in this library are *uniform*: every agent runs the same
local protocol, so an :class:`InformationExchange` object describes the whole
tuple ``⟨E_1, ..., E_n⟩`` at once.

Every exchange used for EBA must satisfy the *EBA-context* constraints of
Section 5, most importantly:

* local states expose ``time``, ``init``, ``decided``, and ``jd`` ("just
  decided" — the value some agent was observed deciding this round);
* the message sent when deciding 0, deciding 1, and otherwise are mutually
  distinguishable;
* the update increments ``time`` and maintains ``decided`` / ``jd``.

The shared bookkeeping for those constraints lives in this module so the
concrete exchanges (:mod:`repro.exchange.minimal`, :mod:`repro.exchange.basic`,
:mod:`repro.exchange.fip`) only add their own extra state.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..core.errors import ProtocolError
from ..core.types import Action, AgentId, Value
from .messages import DecideNotification, Message, message_bits


@dataclass(frozen=True)
class LocalState:
    """The part of a local state that every EBA context must contain.

    Attributes
    ----------
    agent:
        The owning agent's identifier (kept in the state for convenience; the
        paper indexes states by agent instead).
    n:
        The number of agents in the system.
    time:
        The current time (number of completed rounds).
    init:
        The agent's initial preference.
    decided:
        The value decided so far, or ``None`` if still undecided.
    jd:
        The "just decided" observation: ``v`` if in the last round the agent
        received a message from some agent that was deciding ``v``; ``None``
        otherwise.
    """

    agent: AgentId
    n: int
    time: int
    init: Value
    decided: Optional[Value]
    jd: Optional[Value]


class InformationExchange(abc.ABC):
    """Abstract base class for information-exchange protocols."""

    #: A short name used in reports ("E_min", "E_basic", "E_fip").
    name: str = "E"

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ProtocolError(f"an exchange needs a positive number of agents, got {n}")
        self.n = n

    # ------------------------------------------------------------------ interface

    @abc.abstractmethod
    def initial_state(self, agent: AgentId, init: Value) -> LocalState:
        """The initial local state of ``agent`` with initial preference ``init``."""

    @abc.abstractmethod
    def messages_for(self, state: LocalState, action: Action) -> Tuple[Message, ...]:
        """The messages ``μ_i(s, a)``: one entry per recipient ``0 .. n-1`` (``None`` = ``⊥``)."""

    @abc.abstractmethod
    def update(self, state: LocalState, action: Action,
               received: Sequence[Message]) -> LocalState:
        """The state update ``δ_i(s, a, (m_1, ..., m_n))``.

        ``received[j]`` is the message received from agent ``j`` this round, or
        ``None`` if no message arrived from ``j``.
        """

    # ------------------------------------------------------------------ shared helpers

    def message_bits(self, message: Message) -> int:
        """Bits needed to transmit ``message`` under this exchange."""
        return message_bits(message, self.n)

    @staticmethod
    def decide_message(action: Action) -> Optional[DecideNotification]:
        """The decide notification corresponding to ``action`` (``None`` for noop)."""
        if action.is_decision:
            return DecideNotification(action.value)
        return None

    @staticmethod
    def observed_just_decided(received: Sequence[Message]) -> Optional[Value]:
        """Compute the ``jd`` component from the received messages.

        Per the EBA-context constraints, a received message in ``M0`` yields
        ``jd = 0``; a message in ``M1`` yields ``jd = 1``.  If both kinds are
        received, 0 takes precedence (0-biased protocols act on 0 first; the
        concrete protocols only need "some agent just decided v").
        """
        saw_one = False
        for message in received:
            if isinstance(message, DecideNotification):
                if message.value == 0:
                    return 0
                saw_one = True
        return 1 if saw_one else None

    @staticmethod
    def next_decided(state: LocalState, action: Action) -> Optional[Value]:
        """The ``decided`` component after performing ``action`` in ``state``."""
        if action.is_decision:
            if state.decided is not None and state.decided != action.value:
                raise ProtocolError(
                    f"agent {state.agent} attempted to change its decision from "
                    f"{state.decided} to {action.value}"
                )
            return action.value
        return state.decided

    # ------------------------------------------------------------------ cosmetics

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}(n={self.n})"
