"""Unit tests for P_min (the minimal-exchange action protocol)."""

import pytest

from repro.analysis.optimality import probe_optimality
from repro.core.errors import ConfigurationError, ProtocolError
from repro.core.types import DECIDE_0, DECIDE_1, NOOP
from repro.exchange import BasicExchange, MinimalExchange
from repro.exchange.base import LocalState
from repro.protocols import MinProtocol
from repro.systems import gamma_min


def state(agent=0, n=4, time=0, init=1, decided=None, jd=None):
    return LocalState(agent=agent, n=n, time=time, init=init, decided=decided, jd=jd)


class TestRules:
    def test_decides_zero_on_initial_zero(self):
        assert MinProtocol(1).act(state(init=0)) == DECIDE_0

    def test_decides_zero_on_jd_zero(self):
        assert MinProtocol(1).act(state(init=1, time=1, jd=0)) == DECIDE_0

    def test_waits_before_deadline(self):
        protocol = MinProtocol(2)
        for time in range(protocol.t + 1):
            assert protocol.act(state(time=time, init=1)) == NOOP

    def test_decides_one_at_deadline(self):
        protocol = MinProtocol(2)
        assert protocol.act(state(time=3, init=1)) == DECIDE_1

    def test_noop_after_decision(self):
        protocol = MinProtocol(1)
        assert protocol.act(state(decided=0, init=0)) == NOOP
        assert protocol.act(state(decided=1, time=2)) == NOOP

    def test_zero_rule_has_priority_over_deadline(self):
        protocol = MinProtocol(1)
        assert protocol.act(state(time=2, init=1, jd=0)) == DECIDE_0

    def test_jd_one_does_not_trigger_anything_early(self):
        protocol = MinProtocol(2)
        assert protocol.act(state(time=1, init=1, jd=1)) == NOOP


class TestConfiguration:
    def test_exchange_is_minimal(self):
        assert isinstance(MinProtocol(1).make_exchange(5), MinimalExchange)

    def test_negative_t_rejected(self):
        with pytest.raises(ConfigurationError):
            MinProtocol(-1)

    def test_validate_for_requires_t_below_n(self):
        with pytest.raises(ConfigurationError):
            MinProtocol(4).validate_for(4)

    def test_optimality_requires_two_nonfaulty(self):
        # Correctness only needs t < n, but with a single nonfaulty agent
        # (n - t = 1) a one-step deviation decides earlier and stays correct.
        MinProtocol(1).validate_for(2)
        assert not probe_optimality(MinProtocol(1), gamma_min(2, 1)).consistent_with_optimality
        assert probe_optimality(MinProtocol(1), gamma_min(3, 1)).consistent_with_optimality

    def test_rejects_foreign_state_types(self):
        protocol = MinProtocol(1)
        # BasicLocalState is acceptable (it extends LocalState); an arbitrary
        # object is not.
        with pytest.raises(ProtocolError):
            protocol.act("not a state")

    def test_accepts_subclass_states(self):
        basic_state = BasicExchange(4).initial_state(0, 0)
        assert MinProtocol(1).act(basic_state) == DECIDE_0
