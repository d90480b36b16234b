"""Helpers for working with sets of agents.

Agents are identified by integers ``0 .. n-1``.  The paper frequently reasons
about the set of nonfaulty agents ``N`` and its complement; this module keeps
those small utilities in one place.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from .errors import ConfigurationError
from .types import AgentId


def validate_agent(agent: AgentId, n: int) -> AgentId:
    """Validate that ``agent`` is a legal agent id for an ``n``-agent system."""
    if not isinstance(agent, int) or isinstance(agent, bool):
        raise ConfigurationError(f"agent ids must be integers, got {agent!r}")
    if not 0 <= agent < n:
        raise ConfigurationError(f"agent id {agent} out of range for n={n}")
    return agent


def validate_agent_set(agents: Iterable[AgentId], n: int) -> FrozenSet[AgentId]:
    """Validate a collection of agent ids and return it as a frozenset."""
    result = frozenset(agents)
    for agent in result:
        validate_agent(agent, n)
    return result


def complement(agents: Iterable[AgentId], n: int) -> FrozenSet[AgentId]:
    """Return the agents in ``0..n-1`` that are *not* in ``agents``."""
    present = validate_agent_set(agents, n)
    return frozenset(range(n)) - present
