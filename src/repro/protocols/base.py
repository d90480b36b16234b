"""The action-protocol interface (the ``P`` of the paper).

An action protocol maps local states of an information-exchange protocol to
actions (``decide(v)`` or ``noop``).  Each concrete protocol also knows which
information-exchange protocol it is designed for, so that the simulation engine
and the :mod:`repro.api` specs can construct matching ``(E, P)`` pairs from a
protocol object alone.
"""

from __future__ import annotations

import abc
from typing import Type

from ..core.errors import ConfigurationError, ProtocolError
from ..core.types import Action
from ..exchange.base import InformationExchange, LocalState


class ActionProtocol(abc.ABC):
    """Abstract base class for EBA action protocols.

    Parameters
    ----------
    t:
        The bound on the number of faulty agents the protocol is designed for.
        (Every protocol in the paper is parameterised by ``t``.)
    """

    #: Short name used in reports ("P_min", "P_basic", "P_opt", ...).
    name: str = "P"

    #: The class of local states the protocol expects (used for validation).
    state_type: Type[LocalState] = LocalState

    def __init__(self, t: int) -> None:
        if t < 0:
            raise ConfigurationError(f"the failure bound t must be non-negative, got {t}")
        self.t = t

    # ------------------------------------------------------------------ interface

    @abc.abstractmethod
    def make_exchange(self, n: int) -> InformationExchange:
        """Construct the information-exchange protocol this action protocol pairs with."""

    @abc.abstractmethod
    def act(self, state: LocalState) -> Action:
        """The local action protocol ``P_i``: the action to perform in ``state``."""

    # ------------------------------------------------------------------ helpers

    def check_state(self, state: LocalState) -> LocalState:
        """Validate that ``state`` has the type this protocol expects."""
        if not isinstance(state, self.state_type):
            raise ProtocolError(
                f"{self.name} expects {self.state_type.__name__} local states, "
                f"got {type(state).__name__}"
            )
        return state

    def validate_for(self, n: int) -> None:
        """Check the protocol's parameters against a system of ``n`` agents.

        The paper's optimality results require ``n - t >= 2``; correctness only
        needs ``t < n``, which is what this checks.
        """
        if self.t >= n:
            raise ConfigurationError(
                f"{self.name} requires t < n, got t={self.t}, n={n}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}(t={self.t})"
