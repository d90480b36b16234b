"""The one-pass key encoder against the token-tree oracle, plus golden digests.

:func:`repro.store.content_key` renders the canonical text of a key in one
pass; :func:`repro.store.token` is the reference definition of the scheme.
These tests pin the two together:

* differentially — ``content_key(kind, *parts)`` must equal the sha256 of
  ``repr`` of the token tree, over Hypothesis-generated nested values and over
  one real configuration per artifact family at n=3;
* against golden digests — one literal key per family, with the code
  fingerprint held constant, so a change to the key scheme fails here instead
  of silently orphaning every existing cache entry;
* for callables — a bound method keys by the instance it is bound to, and
  lambdas and local functions (which share a qualified name with every other
  closure from the same factory) are refused rather than keyed, and a
  ``functools.partial`` keys by its function, arguments and keywords.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import math
import operator
from typing import Callable, Dict

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.specs import SweepSpec
from repro.core.errors import StoreError
from repro.failures import FailurePattern
from repro.kbp.programs import make_p0, make_p1
from repro.protocols import BasicProtocol, MinProtocol
from repro.service.wire import (
    decode_request,
    request_key,
    run_request,
    sweep_request,
    theorem_request,
)
from repro.store import (
    STORE_VERSION,
    code_fingerprint,
    content_key,
    context_system_key,
    equivalence_report_key,
    implementation_report_key,
    run_task_key,
    safety_report_key,
    sweep_key,
    system_key,
    token,
)
from repro.store import caching as caching_module
from repro.store import keys as keys_module
from repro.systems import gamma_basic, gamma_min
from repro.workloads.preferences import enumerate_preferences


def oracle_key(kind: str, *parts: object) -> str:
    """The key scheme's definition: sha256 over ``repr`` of the token tree."""
    payload = ("repro-store", STORE_VERSION, code_fingerprint(), kind,
               tuple(token(part) for part in parts))
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


# ------------------------------------------------------------- generated values

class Colour(enum.Enum):
    RED = 1
    GREEN = "green"


class Level(enum.IntEnum):  # an int subclass: takes token()'s int branch
    LOW = 1
    HIGH = 2


@dataclasses.dataclass(frozen=True)
class Pair:
    left: object
    right: object


@dataclasses.dataclass(frozen=True)
class Single:
    value: object


@dataclasses.dataclass(frozen=True)
class Empty:
    pass


class Plain:
    """A plain object: keyed through its ``__dict__``."""

    def __init__(self, attrs: Dict[str, object]) -> None:
        self.__dict__.update(attrs)

    def method(self) -> None:
        """A method, so bound methods of generated instances can be keyed."""

    @classmethod
    def build(cls) -> "Plain":
        """A classmethod: bound to the class itself."""
        return cls({})


class Hooked:
    """An object whose ``__store_token__`` replaces the generic treatment."""

    def __init__(self, value: object) -> None:
        self.value = value
        self.unkeyable = object()

    def __store_token__(self) -> object:
        return self.value


@dataclasses.dataclass(frozen=True)
class HookedRecord:
    """A dataclass with a hook: the hook wins over the field walk."""

    value: object

    def __store_token__(self) -> object:
        return ("record", self.value)


def module_function() -> None:
    """A module-level function: keyed by its qualified name."""


LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.text(alphabet=st.sampled_from("a'\"\\\n\t é€😀\x00")),
    st.text(),
    st.binary(max_size=8),
    st.sampled_from([Colour.RED, Colour.GREEN, Level.LOW, Level.HIGH]),
    st.sampled_from([int, Pair, Colour, len, module_function, Empty()]),
)

HASHABLE = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3).map(frozenset),
        st.builds(Pair, inner, inner),
        st.builds(Single, inner),
    ),
    max_leaves=8,
)

# Sets and maps are drawn as lists and converted (duplicates collapse): a
# unique-element draw would render the whole recursive strategy's repr on retry.
VALUES = st.recursive(
    HASHABLE,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.lists(HASHABLE, max_size=3).map(set),
        st.lists(st.tuples(HASHABLE, inner), max_size=3).map(dict),
        st.builds(Pair, inner, inner),
        st.builds(Single, inner),
        st.lists(st.tuples(st.text(max_size=3), inner), max_size=3).map(dict).map(Plain),
        st.lists(st.tuples(st.text(max_size=3), inner), max_size=2).map(
            lambda attrs: Plain(dict(attrs)).method),
        st.builds(Hooked, inner),
        st.builds(HookedRecord, inner),
    ),
    max_leaves=16,
)


class TestEncoderMatchesOracle:
    @settings(max_examples=250, deadline=None)
    @given(VALUES)
    def test_generated_value(self, value):
        assert content_key("value", value) == oracle_key("value", value)

    @settings(max_examples=100, deadline=None)
    @given(st.text(), st.lists(HASHABLE, max_size=3))
    def test_generated_parts(self, kind, parts):
        # Zero, one and several parts render as (), (x,) and (x, y, ...).
        assert content_key(kind, *parts) == oracle_key(kind, *parts)

    @pytest.mark.parametrize("value", [
        (), (1,), (1, 2), [], [None], frozenset(), {}, {1: "a", "1": "b", None: 0.5},
        {True: 1, 2: 2}, -0.0, math.nan, "it's \"quoted\" \\ é", b"\x00\xff",
        Level.LOW, Empty(), Single(Single(())), Plain({}), Plain({"x": [1, {2}]}),
    ], ids=lambda value: type(value).__name__)
    def test_edge_value(self, value):
        assert content_key("value", value) == oracle_key("value", value)


# ------------------------------------------------------------- artifact families

def _pattern() -> FailurePattern:
    return FailurePattern(n=3, faulty=frozenset({0}),
                          omissions=frozenset({(0, 0, 1), (1, 0, 2)}))


def _request(body: Dict[str, object]) -> str:
    request = decode_request(body)
    return request_key(request.kind, request.spec)


#: One key per artifact family at n=3, built through its public key function.
FAMILIES: Dict[str, Callable[[], str]] = {
    "run": lambda: run_task_key((MinProtocol(1), 3, (0, 1, 1), _pattern(), None)),
    "resultset": lambda: sweep_key(SweepSpec(
        protocols=(MinProtocol(1), BasicProtocol(1)), n=3,
        scenarios=(((0, 1, 1), _pattern()), ((1, 1, 1), FailurePattern(n=3))),
        seed=7)),
    "system": lambda: system_key(BasicProtocol(1), 3, gamma_basic(3, 1).horizon,
                                 list(gamma_basic(3, 1).patterns()),
                                 list(enumerate_preferences(3))),
    "context-system": lambda: context_system_key(MinProtocol(1), gamma_min(3, 1)),
    "implementation-report": lambda: implementation_report_key(
        MinProtocol(1), make_p0(3), gamma_min(3, 1), None, 10),
    "safety-report": lambda: safety_report_key(BasicProtocol(1), gamma_basic(3, 1), 10),
    "equivalence-report": lambda: equivalence_report_key(
        make_p0(3), make_p1(3, 1), MinProtocol(1), gamma_min(3, 1), None),
    "request-run": lambda: _request(run_request("basic", 1, 3, [1, 0, 1], _pattern())),
    "request-sweep": lambda: _request(sweep_request(
        [("min", 1), ("basic", 1)], workload={"n": 3, "t": 1, "count": 4, "seed": 11})),
    "request-theorem": lambda: _request(theorem_request("6.6", 3, 1)),
}

#: Digests of FAMILIES with the code fingerprint fixed to FINGERPRINT, computed
#: by the token-tree implementation that predates the one-pass encoder.  A
#: change here means every existing cache entry is orphaned: bump STORE_VERSION
#: deliberately instead of re-pinning silently.
FINGERPRINT = "0" * 64
GOLDEN = {
    "context-system": "594622e275f46da8ca7fa6e728faa17a1a9f7806028e24599f20ea93337d3cb3",
    "equivalence-report": "2637d4ce21702cb96e0129148e78a15c4e7a644ff71ad716ec3ba7493a652eab",
    "implementation-report": "4e485c7584fcf0d53c52064e13a310a534848ff93e198e185311a34db15f1f6f",
    "request-run": "4c0bb633b2d0d4f6715e5d5efe99840c23fb0306615af82bf2b310db4edd6d3d",
    "request-sweep": "bd42ae4ec196db02dacc6f90f0df0e557caeb5860dd853bd018904393245bb7d",
    "request-theorem": "d3864f02e12735d0cf9df0b97c6c50fefb6adcce6174f1d3d88d3aa243d850b2",
    "resultset": "d9877a20898f3fcf52b86f4824eba047df6ed39719722bd2de24116b57336bf6",
    "run": "e2109b0695e81fb1f43fe09c4b086223d6e50fc04123632698c66268b1e73dea",
    "safety-report": "d60f913d5d3bfe51a84e6ae83a93588e7ad4cbd159ad616ea8fbd287564606fb",
    "system": "19da6c3235ef40aabb34e16ad1a7347740062d87798285a24101b53225c9f4b8",
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_key_matches_oracle(family, monkeypatch):
    encoded = FAMILIES[family]()
    monkeypatch.setattr(caching_module, "content_key", oracle_key)
    assert encoded == FAMILIES[family]()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_key_matches_golden_digest(family, monkeypatch):
    monkeypatch.setattr(keys_module, "code_fingerprint", lambda: FINGERPRINT)
    assert FAMILIES[family]() == GOLDEN[family]


class TestPartialKeys:
    """A ``functools.partial`` keys by its function, arguments and keywords.

    It used to key through its empty ``__dict__``, so every partial collided.
    """

    def test_bound_arguments_separate_keys(self):
        one, two = functools.partial(operator.add, 1), functools.partial(operator.add, 2)
        assert content_key("run", one) != content_key("run", two)
        assert token(one) != token(two)
        assert content_key("run", one) == content_key("run", functools.partial(operator.add, 1))

    def test_function_and_keywords_separate_keys(self):
        base = functools.partial(module_function, 1, scale=2)
        assert content_key("run", base) != content_key("run", functools.partial(Plain.build, 1, scale=2))
        assert content_key("run", base) != content_key("run", functools.partial(module_function, 1, scale=3))
        assert content_key("run", base) != content_key("run", functools.partial(module_function, 1))

    @pytest.mark.parametrize("value", [
        functools.partial(operator.add, 1),
        functools.partial(module_function),
        functools.partial(module_function, None, (1, 2.5), key={"b": 1, "a": [True]}),
        functools.partial(functools.partial(operator.mul, 3), 4),
        [functools.partial(Plain({"x": 1}).method, "y")],
    ], ids=["args", "bare", "keywords", "nested", "bound-in-list"])
    def test_encoder_matches_oracle(self, value):
        assert content_key("run", value) == oracle_key("run", value)

    def test_token_shape(self):
        assert token(functools.partial(module_function, 1, k=None)) == (
            "partial", ("callable", f"{__name__}.module_function"),
            ("seq", (("int", 1),)), ("map", ((("str", "k"), ("none",)),)))


# ------------------------------------------------------------- callables

def _make_closure(value: int) -> Callable[[], int]:
    def closure() -> int:
        return value
    return closure


class TestCallableKeys:
    def test_module_function_keys_by_qualified_name(self):
        assert token(module_function) == ("callable", f"{__name__}.module_function")
        assert content_key("x", module_function) == oracle_key("x", module_function)

    def test_builtin_function_ignores_its_module(self):
        assert token(len) == ("callable", "builtins.len")

    def test_bound_methods_key_by_their_instance(self):
        first, second = Plain({"x": 1}).method, Plain({"x": 2}).method
        assert content_key("x", first) != content_key("x", second)
        assert content_key("x", first) == content_key("x", Plain({"x": 1}).method)
        assert token(first) != token(second)
        assert token(first) == ("callable", f"{__name__}.Plain.method", token(Plain({"x": 1})))
        assert content_key("x", first) == oracle_key("x", first)

    def test_bound_classmethod_keys_by_its_class(self):
        bound = Plain.build
        assert token(bound) == ("callable", f"{__name__}.Plain.build",
                                ("type", f"{__name__}.Plain"))
        assert content_key("x", bound) == oracle_key("x", bound)

    @pytest.mark.parametrize("make", [_make_closure, lambda value: lambda: value],
                             ids=["closure", "lambda"])
    def test_closures_are_refused(self, make):
        with pytest.raises(StoreError, match="lambda or local function"):
            content_key("x", make(1))
        with pytest.raises(StoreError, match="lambda or local function"):
            token(make(2))
