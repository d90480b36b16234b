"""Fundamental value, action, and message types shared across the library.

The paper models binary Eventual Byzantine Agreement (EBA): each agent starts
with a preference in ``{0, 1}`` and may eventually perform one of the actions
``decide(0)``, ``decide(1)``, or ``noop``.  This module provides small, hashable
representations for those concepts so they can be used inside frozen local
states, dictionary keys, and trace records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

#: Type alias for an agent identifier.  Agents are numbered ``0 .. n-1``.
AgentId = int

#: Type alias for a binary preference / decision value.
Value = int

#: The two legal binary values.
VALUES: tuple[Value, Value] = (0, 1)

#: Sentinel used throughout the paper for "no decision yet" / "no message".
#: We keep it as ``None`` so that states remain simple and hashable.
UNDECIDED: Optional[Value] = None


class ActionKind(enum.Enum):
    """The kind of action an agent can perform in a round."""

    NOOP = "noop"
    DECIDE = "decide"


@dataclass(frozen=True)
class Action:
    """An action performed by an agent in a round.

    Attributes
    ----------
    kind:
        Whether the action is a decision or a no-op.
    value:
        The decided value (0 or 1) when ``kind`` is :attr:`ActionKind.DECIDE`,
        otherwise ``None``.
    """

    kind: ActionKind
    value: Optional[Value] = None

    def __post_init__(self) -> None:
        if self.kind is ActionKind.DECIDE:
            if self.value not in VALUES:
                raise ValueError(f"decide action requires a value in {VALUES}, got {self.value!r}")
        else:
            if self.value is not None:
                raise ValueError("noop action must not carry a value")

    @property
    def is_decision(self) -> bool:
        """Whether this action decides a value."""
        return self.kind is ActionKind.DECIDE

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_decision:
            return f"decide({self.value})"
        return "noop"


#: The unique no-op action (actions are value objects, so one instance suffices).
NOOP: Action = Action(ActionKind.NOOP)


def decide(value: Value) -> Action:
    """Return the action ``decide(value)``.

    Parameters
    ----------
    value:
        Either 0 or 1.
    """
    return Action(ActionKind.DECIDE, value)


#: The action deciding 0.
DECIDE_0: Action = decide(0)

#: The action deciding 1.
DECIDE_1: Action = decide(1)


def validate_value(value: Value) -> Value:
    """Validate that ``value`` is 0 or 1 and return it."""
    if value not in VALUES:
        raise ValueError(f"expected a binary value, got {value!r}")
    return value


#: A preference vector assigns an initial preference to every agent, by index.
PreferenceVector = tuple[Value, ...]


def validate_preferences(preferences: Union[PreferenceVector, list[Value]], n: int) -> PreferenceVector:
    """Validate and normalize an initial-preference vector.

    Parameters
    ----------
    preferences:
        A sequence of length ``n`` whose entries are all 0 or 1.
    n:
        The expected number of agents.

    Returns
    -------
    tuple
        The preferences as an immutable tuple.
    """
    prefs = tuple(preferences)
    if len(prefs) != n:
        raise ValueError(f"expected {n} preferences, got {len(prefs)}")
    for agent, value in enumerate(prefs):
        if value not in VALUES:
            raise ValueError(f"agent {agent} has non-binary preference {value!r}")
    return prefs
