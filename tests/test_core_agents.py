"""Unit tests for repro.core.agents."""

import pytest

from repro.core.agents import (
    complement,
    validate_agent,
    validate_agent_set,
)
from repro.core.errors import ConfigurationError
from repro.failures import FailurePattern


class TestAllAgents:
    def test_enumerates_range(self):
        assert complement((), 4) == frozenset({0, 1, 2, 3})
        assert FailurePattern.failure_free(4).nonfaulty == frozenset(range(4))

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError, match="must be positive"):
            FailurePattern(n=0)
        with pytest.raises(ConfigurationError):
            validate_agent(0, 0)


class TestValidation:
    def test_validate_agent_in_range(self):
        assert validate_agent(2, 4) == 2

    def test_validate_agent_out_of_range(self):
        with pytest.raises(ConfigurationError):
            validate_agent(4, 4)
        with pytest.raises(ConfigurationError):
            validate_agent(-1, 4)

    def test_validate_agent_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            validate_agent(True, 4)

    def test_validate_agent_set(self):
        assert validate_agent_set([0, 2], 4) == frozenset({0, 2})

    def test_validate_agent_set_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            validate_agent_set([0, 5], 4)


class TestComplement:
    def test_complement(self):
        assert complement({0, 2}, 4) == frozenset({1, 3})

    def test_complement_of_everything_is_empty(self):
        assert complement(range(3), 3) == frozenset()


def test_format_agent_set_sorts():
    pattern = FailurePattern(n=4, faulty=frozenset({3, 1}))
    assert pattern.describe().startswith("faulty=[1, 3]")
