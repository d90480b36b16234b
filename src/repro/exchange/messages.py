"""Message types and bit-size accounting for the information-exchange protocols.

Proposition 8.1 compares the three exchanges by the number of *bits* sent per
run, so every message type knows its encoded size:

* ``E_min`` sends only decide notifications, encodable in a single bit.
* ``E_basic`` adds the ``(init, 1)`` heartbeat, so it needs a (constant) two-bit
  alphabet.
* ``E_fip`` sends the full communication graph, which takes ``O(n^2 * t)`` bits
  (Section 8 / Moses–Tuttle).

``None`` is used for "no message" (the paper's ``⊥``) and contributes zero bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..core.types import Value, validate_value


@dataclass(frozen=True)
class DecideNotification:
    """The message an agent sends in the round in which it decides ``value``.

    In ``E_min`` and ``E_basic`` this is the literal message ``0`` or ``1``
    (the sets ``M0 = {0}`` and ``M1 = {1}`` of Section 6).
    """

    value: Value

    def __post_init__(self) -> None:
        validate_value(self.value)

    def bit_size(self, n: int) -> int:
        """One bit suffices to encode which value was decided."""
        return 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"decide-msg({self.value})"


@dataclass(frozen=True)
class InitOneHeartbeat:
    """The ``(init, 1)`` message of ``E_basic``.

    Sent every round by an undecided agent whose initial preference is 1 and
    that has not yet heard a decide notification.
    """

    def bit_size(self, n: int) -> int:
        """Two bits distinguish the heartbeat from the two decide notifications."""
        return 2

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "(init, 1)"


@dataclass(frozen=True)
class GraphMessage:
    """A full-information message: the sender's entire communication graph."""

    graph: "CommGraph"  # forward reference; see repro.exchange.commgraph

    def bit_size(self, n: int) -> int:
        """Size of the encoded communication graph in bits."""
        return self.graph.bit_size()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"graph-msg(time={self.graph.time})"


#: A message is one of the concrete message dataclasses, or ``None`` for ``⊥``.
Message = Optional[Union[DecideNotification, InitOneHeartbeat, GraphMessage]]


def message_bits(message: Message, n: int) -> int:
    """The number of bits needed to transmit ``message`` (0 for ``⊥``)."""
    if message is None:
        return 0
    return message.bit_size(n)
