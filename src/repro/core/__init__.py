"""Core value types, agent helpers, and exceptions."""

from .agents import complement, validate_agent, validate_agent_set
from .errors import (
    ConfigurationError,
    FailureModelError,
    ModelCheckingError,
    ProtocolError,
    ReproError,
)
from .types import (
    Action,
    ActionKind,
    AgentId,
    DECIDE_0,
    DECIDE_1,
    NOOP,
    PreferenceVector,
    UNDECIDED,
    VALUES,
    Value,
    decide,
    validate_preferences,
    validate_value,
)

__all__ = [
    "Action",
    "ActionKind",
    "AgentId",
    "ConfigurationError",
    "DECIDE_0",
    "DECIDE_1",
    "FailureModelError",
    "ModelCheckingError",
    "NOOP",
    "PreferenceVector",
    "ProtocolError",
    "ReproError",
    "UNDECIDED",
    "VALUES",
    "Value",
    "complement",
    "decide",
    "validate_agent",
    "validate_agent_set",
    "validate_preferences",
    "validate_value",
]
