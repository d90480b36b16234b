"""Unit tests for repro.exchange.messages."""

import pytest

from repro.analysis.chains import reveals_zero_decision
from repro.exchange import CommGraph
from repro.exchange.messages import (
    DecideNotification,
    GraphMessage,
    InitOneHeartbeat,
    message_bits,
)


class TestDecideNotification:
    def test_one_bit(self):
        assert DecideNotification(0).bit_size(10) == 1
        assert DecideNotification(1).bit_size(3) == 1

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            DecideNotification(2)

    def test_value_semantics(self):
        assert DecideNotification(0) == DecideNotification(0)
        assert DecideNotification(0) != DecideNotification(1)


class TestHeartbeat:
    def test_two_bits(self):
        assert InitOneHeartbeat().bit_size(10) == 2

    def test_heartbeats_are_interchangeable(self):
        assert InitOneHeartbeat() == InitOneHeartbeat()


class TestGraphMessage:
    def test_bit_size_delegates_to_graph(self):
        graph = CommGraph.initial(4, agent=0, init=1)
        message = GraphMessage(graph)
        assert message.bit_size(4) == graph.bit_size()


class TestHelpers:
    def test_message_bits_of_none_is_zero(self):
        assert message_bits(None, 5) == 0

    def test_message_bits_of_notification(self):
        assert message_bits(DecideNotification(1), 5) == 1

    def test_is_decide_notification(self):
        assert reveals_zero_decision(DecideNotification(0))
        assert not reveals_zero_decision(DecideNotification(1))
        assert not reveals_zero_decision(InitOneHeartbeat())
        assert not reveals_zero_decision(None)
