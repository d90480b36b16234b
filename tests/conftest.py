"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Callable, Dict

import pytest

from repro.failures import FailurePattern, SendingOmissionModel
from repro.protocols import BasicProtocol, MinProtocol, OptimalFipProtocol
from repro.protocols.base import ActionProtocol
from repro.store import context_system_key
from repro.systems import EBAContext, InterpretedSystem


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running exhaustive checks (deselect with -m 'not slow')")


@pytest.fixture(scope="session")
def n3_system() -> Callable[[ActionProtocol, EBAContext], InterpretedSystem]:
    """``context.build_system(protocol)`` for n=3 contexts, built once per session.

    Test modules that check the same ``(γ, P)`` (the run-table round trips and
    the Def 6.2 receipt parity cases) share one build, memoised under the
    store's definition key.  The systems are shared: treat them as read-only.
    """
    built: Dict[str, InterpretedSystem] = {}

    def build(protocol: ActionProtocol, context: EBAContext) -> InterpretedSystem:
        assert context.n == 3, "only n=3 systems are memoised for the session"
        key = context_system_key(protocol, context)
        if key not in built:
            built[key] = context.build_system(protocol)
        return built[key]
    return build


@pytest.fixture
def failure_free_4():
    """The failure-free pattern for four agents."""
    return FailurePattern.failure_free(4)


@pytest.fixture
def so_model_4_1():
    """The sending-omissions model SO(1) for four agents."""
    return SendingOmissionModel(n=4, t=1)


@pytest.fixture(params=["min", "basic", "opt"])
def any_protocol_t1(request):
    """Each of the paper's three protocols with failure bound t=1."""
    return {
        "min": MinProtocol(1),
        "basic": BasicProtocol(1),
        "opt": OptimalFipProtocol(1),
    }[request.param]


@pytest.fixture(params=["min", "basic", "opt"])
def any_protocol_t2(request):
    """Each of the paper's three protocols with failure bound t=2."""
    return {
        "min": MinProtocol(2),
        "basic": BasicProtocol(2),
        "opt": OptimalFipProtocol(2),
    }[request.param]
