"""Unit tests for repro.core.types."""

import pytest

from repro.core.types import (
    Action,
    ActionKind,
    DECIDE_0,
    DECIDE_1,
    NOOP,
    decide,
    validate_preferences,
    validate_value,
)


class TestAction:
    def test_decide_carries_value(self):
        action = decide(1)
        assert action.is_decision
        assert action.value == 1
        assert action.kind is ActionKind.DECIDE

    def test_noop_is_not_a_decision(self):
        assert not NOOP.is_decision
        assert NOOP.value is None

    def test_decide_rejects_non_binary_values(self):
        with pytest.raises(ValueError):
            decide(2)
        with pytest.raises(ValueError):
            Action(ActionKind.DECIDE, None)

    def test_noop_rejects_a_value(self):
        with pytest.raises(ValueError):
            Action(ActionKind.NOOP, 0)

    def test_actions_are_value_objects(self):
        assert decide(0) == DECIDE_0
        assert decide(1) == DECIDE_1
        assert decide(0) != decide(1)
        assert hash(decide(0)) == hash(DECIDE_0)

    def test_repr_is_readable(self):
        assert repr(decide(0)) == "decide(0)"
        assert repr(NOOP) == "noop"


class TestValueHelpers:

    def test_validate_value_accepts_binary(self):
        assert validate_value(0) == 0
        assert validate_value(1) == 1

    def test_validate_value_rejects_non_binary(self):
        with pytest.raises(ValueError):
            validate_value(-1)


class TestPreferenceVectors:
    def test_validate_normalizes_to_tuple(self):
        assert validate_preferences([0, 1, 1], 3) == (0, 1, 1)

    def test_validate_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            validate_preferences([0, 1], 3)

    def test_validate_rejects_non_binary_entries(self):
        with pytest.raises(ValueError):
            validate_preferences([0, 1, 2], 3)
