"""Information-exchange protocols: ``E_min``, ``E_basic``, and ``E_fip``."""

from .base import InformationExchange, LocalState
from .basic import BasicExchange, BasicLocalState
from .commgraph import CommGraph, LabelledEdge
from .fip import FipLocalState, FullInformationExchange
from .messages import (
    DecideNotification,
    GraphMessage,
    InitOneHeartbeat,
    Message,
    message_bits,
)
from .minimal import MinimalExchange

__all__ = [
    "BasicExchange",
    "BasicLocalState",
    "CommGraph",
    "DecideNotification",
    "FipLocalState",
    "FullInformationExchange",
    "GraphMessage",
    "InformationExchange",
    "InitOneHeartbeat",
    "LabelledEdge",
    "LocalState",
    "Message",
    "MinimalExchange",
    "message_bits",
]
