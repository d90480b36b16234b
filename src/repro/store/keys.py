"""Canonical content hashing for cache keys.

Every artifact the store caches — a simulated run, a built
:class:`~repro.systems.interpreted.InterpretedSystem`, an implementation or
safety report, an executed :class:`~repro.api.results.ResultSet` — is addressed
by the **content key** of the configuration that produced it, never by a name
chosen by the caller.  Two requirements shape the scheme:

1. **Canonical.**  Logically equal configurations must hash identically across
   processes and platforms.  Python's ``hash()`` is salted per process and
   ``pickle`` does not canonicalise set iteration order, so a key is the hash
   of ``repr`` of an explicit *token tree*: a nested tuple of tagged
   primitives defined by :func:`token`, with every unordered collection sorted
   on the way in (the same idea as ``FailurePattern.__reduce__``'s sorted-tuple
   pickling).  :func:`content_key` renders that text in one pass without
   building the tree; :func:`token` stays as its reference definition.
2. **Never stale.**  A cache must not survive a change that could alter the
   artifact.  Every key therefore folds in :data:`STORE_VERSION` (bumped on
   any change to the on-disk format or the key scheme itself) and
   :func:`code_fingerprint`, a hash of the ``repro`` package's own source
   files — editing any library module invalidates the whole cache, which costs
   a rebuild but can never silently return results computed by old code.

The token rules cover everything the library keys by construction: primitives,
sequences, mappings, sets (sorted), enums, frozen dataclasses (protocols,
patterns, models, contexts, specs, formulas), named callables (by qualified
name; a bound method also by the instance it is bound to — lambdas and local
functions are refused, since closures from one factory share a name),
``functools.partial`` objects (by function, arguments and keywords), and
plain objects via their ``__dict__``.  A class can override the generic
treatment with a ``__store_token__()`` method returning any tokenisable value.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import operator
import types
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..core.errors import StoreError

#: Version of the key scheme and on-disk payload format.  Bump on any change
#: to either; every existing cache entry becomes unreachable (stale-proofing).
STORE_VERSION = 1

_FINGERPRINT_CACHE: Optional[str] = None


def code_fingerprint() -> str:
    """A hash of every ``repro/**/*.py`` source file, computed once per process.

    Folding this into every key means a cache written by one version of the
    library is invisible to any other version: the expensive failure mode of
    content-addressed caching — a stale hit after a semantics change — cannot
    happen.  The cost is over-invalidation (a docstring edit also rebuilds),
    which is the safe direction.
    """
    global _FINGERPRINT_CACHE
    if _FINGERPRINT_CACHE is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for source in sorted(package_root.rglob("*.py")):
            digest.update(str(source.relative_to(package_root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(source.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT_CACHE = digest.hexdigest()
    return _FINGERPRINT_CACHE


def _qualified_name(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def _sorted_tokens(tokens: Iterable[object]) -> Tuple[object, ...]:
    # Tokens are heterogeneous nested tuples; sorting by repr is total and
    # deterministic where direct comparison would raise on mixed types.
    return tuple(sorted(tokens, key=repr))


def _callable_name(obj: Any) -> str:
    """The ``module.qualname`` of a named callable; refuses unaddressable ones.

    A lambda or a function defined inside another function shares its
    qualified name with every other closure from the same factory, so keying
    it would let two different configurations collide.
    """
    qualname: str = obj.__qualname__
    if "<lambda>" in qualname or "<locals>" in qualname:
        raise StoreError(
            f"cannot build a canonical store token for {obj!r}: {qualname!r} names "
            "a lambda or local function, which other closures share; pass a "
            "module-level function or an object with a __store_token__() method"
        )
    return f"{getattr(obj, '__module__', '?')}.{qualname}"


def _bound_self(obj: Any) -> Any:
    """The instance a bound method is bound to, or ``None`` (module functions)."""
    bound = getattr(obj, "__self__", None)
    return None if isinstance(bound, types.ModuleType) else bound


def token(obj: object) -> object:
    """The canonical token tree of ``obj`` (nested tuples of tagged primitives).

    This is the reference definition of the key scheme: :func:`content_key`
    hashes exactly ``repr`` of this tree but renders it in one pass without
    building it, and the store's differential test pins the two together.

    Raises :class:`~repro.core.errors.StoreError` for objects with no rule —
    better to refuse a key than to mint one that collides or drifts.
    """
    if obj is None:
        return ("none",)
    if isinstance(obj, bool):  # before int: bool is an int subclass
        return ("bool", obj)
    if isinstance(obj, int):
        return ("int", obj)
    if isinstance(obj, float):
        return ("float", repr(obj))
    if isinstance(obj, str):
        return ("str", obj)
    if isinstance(obj, bytes):
        return ("bytes", obj.hex())
    if isinstance(obj, enum.Enum):
        return ("enum", _qualified_name(type(obj)), obj.name)
    custom = getattr(obj, "__store_token__", None)
    if custom is not None and not isinstance(obj, type):
        return ("custom", _qualified_name(type(obj)), token(custom()))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return ("dataclass", _qualified_name(type(obj)), tuple(
            (field.name, token(getattr(obj, field.name)))
            for field in dataclasses.fields(obj)
        ))
    if isinstance(obj, (tuple, list)):
        return ("seq", tuple(token(item) for item in obj))
    if isinstance(obj, dict):
        return ("map", _sorted_tokens(
            (token(key), token(value)) for key, value in obj.items()))
    if isinstance(obj, (set, frozenset)):
        return ("set", _sorted_tokens(token(item) for item in obj))
    if isinstance(obj, type):
        return ("type", _qualified_name(obj))
    if isinstance(obj, functools.partial):
        # A partial's behaviour is its function and bound arguments; its
        # (usually empty) __dict__ would let every partial of one type collide.
        return ("partial", token(obj.func), token(obj.args), token(obj.keywords))
    if callable(obj) and hasattr(obj, "__qualname__"):
        # Functions and factory callables key by qualified name (the code
        # fingerprint covers their behaviour); a bound method also keys by
        # the instance it is bound to.
        name = _callable_name(obj)
        bound = _bound_self(obj)
        if bound is None:
            return ("callable", name)
        return ("callable", name, token(bound))
    instance_dict = getattr(obj, "__dict__", None)
    if instance_dict is not None:
        return ("object", _qualified_name(type(obj)), _sorted_tokens(
            (name, token(value)) for name, value in instance_dict.items()
        ))
    raise _untokenisable(obj)


def _untokenisable(obj: object) -> StoreError:
    return StoreError(
        f"cannot build a canonical store token for {obj!r} "
        f"(type {_qualified_name(type(obj))}); give it a __store_token__() method"
    )


# ------------------------------------------------------------------ the encoder
#
# ``content_key`` never builds the token tree: ``_encode(obj)`` returns
# ``repr(token(obj))`` directly.  Each class is classified once, in
# :func:`_plan`, following :func:`token`'s branch order, into an encoder
# function cached in ``_PLANS``; encoding a node is one dict lookup and one
# call.  Unordered collections sort the *encoded* strings of their entries,
# which is exactly ``sorted(..., key=repr)`` over their tokens.  Plans are keyed
# by class and hold no values, so equal-but-distinct values (``1`` and
# ``True``) can never share an encoding.  A class is classified when first
# seen: its ``__store_token__`` hook and dataclass fields are read from the
# class then, not from each instance.

Encoder = Callable[[Any], str]


class _Plans(Dict[type, Encoder]):
    """Class → encoder, filled on first sight of each class."""

    def __missing__(self, cls: type) -> Encoder:
        encoder = _plan(cls)
        self[cls] = encoder
        return encoder


_PLANS = _Plans()


def _encode(obj: object) -> str:
    """``repr(token(obj))``, rendered in one pass."""
    return _PLANS[type(obj)](obj)


def _tuple_text(items: List[str]) -> str:
    """Python's ``repr`` of a tuple whose elements render as ``items``."""
    if len(items) == 1:
        return f"({items[0]},)"
    return f"({', '.join(items)})"


def _encode_none(obj: None) -> str:
    return "('none',)"


def _encode_int(obj: int) -> str:
    return f"('int', {obj!r})"


def _encode_bool(obj: bool) -> str:
    return f"('bool', {obj!r})"


def _encode_float(obj: float) -> str:
    return f"('float', {repr(obj)!r})"


def _encode_str(obj: str) -> str:
    return f"('str', {obj!r})"


def _encode_bytes(obj: bytes) -> str:
    return f"('bytes', {obj.hex()!r})"


def _encode_seq(obj: Iterable[object]) -> str:
    plans = _PLANS
    return f"('seq', {_tuple_text([plans[type(item)](item) for item in obj])})"


def _encode_map(obj: Dict[object, object]) -> str:
    plans = _PLANS
    entries = sorted([f"({plans[type(key)](key)}, {plans[type(value)](value)})"
                      for key, value in obj.items()])
    return f"('map', {_tuple_text(entries)})"


def _encode_set(obj: Iterable[object]) -> str:
    plans = _PLANS
    return f"('set', {_tuple_text(sorted([plans[type(item)](item) for item in obj]))})"


def _encode_type(obj: type) -> str:
    return f"('type', {_qualified_name(obj)!r})"


def _encode_partial(obj: "functools.partial[Any]") -> str:
    return f"('partial', {_encode(obj.func)}, {_encode(obj.args)}, {_encode(obj.keywords)})"


def _enum_encoder(cls: type) -> Encoder:
    head = f"('enum', {_qualified_name(cls)!r}, "

    def encode(obj: enum.Enum) -> str:
        return f"{head}{obj.name!r})"
    return encode


def _custom_encoder(cls: type) -> Encoder:
    head = f"('custom', {_qualified_name(cls)!r}, "

    def encode(obj: Any) -> str:
        return f"{head}{_encode(obj.__store_token__())})"
    return encode


def _dataclass_encoder(cls: type, names: List[str]) -> Encoder:
    """The encoder of a dataclass whose fields are ``names``, in declaration order."""
    head = f"('dataclass', {_qualified_name(cls)!r}, "
    if not names:
        empty = f"{head}())"
        return lambda obj: empty
    heads = [f"({name!r}, " for name in names]
    plans = _PLANS
    if len(names) == 1:
        name, field_head = names[0], heads[0]

        def encode_one(obj: Any) -> str:
            value = getattr(obj, name)
            return f"{head}({field_head}{plans[type(value)](value)}),))"
        return encode_one
    values_of = operator.attrgetter(*names)

    def encode(obj: Any) -> str:
        body = ", ".join([f"{field_head}{plans[type(value)](value)})"
                          for field_head, value in zip(heads, values_of(obj))])
        return f"{head}({body}))"
    return encode


def _other_encoder(cls: type) -> Encoder:
    """Named callables and plain ``__dict__`` objects (decided per instance)."""
    head = f"('object', {_qualified_name(cls)!r}, "

    def encode(obj: Any) -> str:
        if callable(obj) and hasattr(obj, "__qualname__"):
            name = _callable_name(obj)
            bound = _bound_self(obj)
            if bound is None:
                return f"('callable', {name!r})"
            return f"('callable', {name!r}, {_encode(bound)})"
        instance_dict = getattr(obj, "__dict__", None)
        if instance_dict is None:
            raise _untokenisable(obj)
        entries = sorted([f"({attr!r}, {_encode(value)})"
                          for attr, value in instance_dict.items()])
        return f"{head}{_tuple_text(entries)})"
    return encode


def _plan(cls: type) -> Encoder:
    """The encoder of ``cls``'s instances, chosen in :func:`token`'s branch order."""
    if cls is type(None):
        return _encode_none
    if issubclass(cls, bool):  # before int: bool is an int subclass
        return _encode_bool
    if issubclass(cls, int):
        return _encode_int
    if issubclass(cls, float):
        return _encode_float
    if issubclass(cls, str):
        return _encode_str
    if issubclass(cls, bytes):
        return _encode_bytes
    if issubclass(cls, enum.Enum):
        return _enum_encoder(cls)
    if issubclass(cls, type):  # classes themselves: no hook, no fields
        return _encode_type
    if getattr(cls, "__store_token__", None) is not None:
        return _custom_encoder(cls)
    if dataclasses.is_dataclass(cls):
        return _dataclass_encoder(cls, [field.name for field in dataclasses.fields(cls)])
    if issubclass(cls, (tuple, list)):
        return _encode_seq
    if issubclass(cls, dict):
        return _encode_map
    if issubclass(cls, (set, frozenset)):
        return _encode_set
    if issubclass(cls, functools.partial):
        return _encode_partial
    return _other_encoder(cls)


def content_key(kind: str, *parts: object) -> str:
    """The content-addressed key of an artifact: sha256 over the token tree.

    ``kind`` namespaces artifact families ("run", "system",
    "implementation-report", ...); ``parts`` are the configuration values the
    artifact is a pure function of.  :data:`STORE_VERSION` and
    :func:`code_fingerprint` are folded into every key.  The hashed text is
    ``repr(("repro-store", STORE_VERSION, code_fingerprint(), kind,
    tuple(token(part) for part in parts)))``, rendered in one pass.
    """
    text = (f"('repro-store', {STORE_VERSION!r}, {code_fingerprint()!r}, {kind!r}, "
            f"{_tuple_text([_encode(part) for part in parts])})")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
