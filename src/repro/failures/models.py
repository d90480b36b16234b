"""Failure models: families of admissible failure patterns, behind a registry.

A *failure model* (Section 3) is a set of failure patterns, typically
parameterised by an upper bound ``t`` on the number of faulty agents.  The
paper proves its optimality results over the sending-omissions model ``SO(t)``;
this module keeps the whole pipeline parametric over the model family so that
contexts, adversaries, and experiments can swap the failure regime:

* :class:`SendingOmissionModel` — ``SO(t)``: at most ``t`` faulty agents, and
  only faulty agents may omit to *send* messages (the paper's model).
* :class:`ReceiveOmissionModel` — ``RO(t)``: only faulty agents may omit to
  *receive* messages; everything they send is delivered.
* :class:`GeneralOmissionModel` — ``GO(t)``: faulty agents may drop both
  outgoing and incoming messages (sending **and** receive omissions).
* :class:`CrashModel` — the crash-failure special case of ``SO(t)``, where once
  an agent omits a message to some agent it omits all later messages to
  everyone.
* :class:`FailureFreeModel` — no failures at all (used by the Section 8 cost
  analysis, which focuses on failure-free runs).

Each model can validate a pattern, generate random members, and (for small
systems) enumerate every pattern up to a bounded horizon — the latter is what
the epistemic model checker uses to build full interpreted systems.  The
edge-omission models (``SO``/``RO``/``GO``) share one validate/sample/enumerate
machinery parameterised by which *slots* — per-(round, sender, receiver) edges
charged to a faulty endpoint — the model opens up
(:class:`EdgeOmissionModel`).

Models are registered by name (:func:`register_model`) so callers — contexts,
workload generators, the ``repro-eba failure-models`` CLI — can resolve them
from strings::

    >>> make_model("general-omission", n=3, t=1).name
    'GO(1)'
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from typing import (Callable, ClassVar, Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Type)

import numpy as np

from ..core.errors import ConfigurationError, FailureModelError
from ..core.types import AgentId
from .pattern import FailurePattern, Omission

#: A slot list: the blocked-triple candidates a model opens for one faulty set,
#: split into sender-charged and receiver-charged edges.
SlotLists = Tuple[List[Omission], List[Omission]]


@dataclass(frozen=True)
class FailureModel:
    """Base class for failure models.

    Attributes
    ----------
    n:
        Number of agents.
    t:
        Maximum number of faulty agents allowed by the model.

    Class attributes
    ----------------
    allows_send_omissions / allows_receive_omissions:
        Which kinds of charged events the model's patterns may contain; the
        shared :meth:`validate` enforces them.
    samples_per_edge:
        Whether :meth:`sample` accepts an ``omission_probability`` keyword
        (true for the edge-omission models, false for crash/failure-free).
    """

    n: int
    t: int

    allows_send_omissions: ClassVar[bool] = True
    allows_receive_omissions: ClassVar[bool] = False
    samples_per_edge: ClassVar[bool] = False

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ConfigurationError(f"number of agents must be positive, got {self.n}")
        if not 0 <= self.t < self.n:
            raise ConfigurationError(
                f"the bound t on faulty agents must satisfy 0 <= t < n, got t={self.t}, n={self.n}"
            )

    # -- interface ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """A short name for reports (e.g. ``SO(2)``)."""
        return f"{type(self).__name__}({self.t})"

    def admits(self, pattern: FailurePattern) -> bool:
        """Whether ``pattern`` belongs to this failure model."""
        try:
            self.validate(pattern)
        except FailureModelError:
            return False
        return True

    def validate(self, pattern: FailurePattern) -> FailurePattern:
        """Validate ``pattern`` against the model, raising :class:`FailureModelError` if illegal.

        The shared checks: the pattern is for the right number of agents, the
        faulty set respects the bound ``t``, and the pattern only uses the
        kinds of charged events the model allows.  (That a sending omission's
        sender and a receive omission's receiver are faulty is enforced by
        :class:`~repro.failures.pattern.FailurePattern` itself.)
        """
        if pattern.n != self.n:
            raise FailureModelError(
                f"pattern is for {pattern.n} agents but the model expects {self.n}"
            )
        if pattern.num_faulty > self.t:
            raise FailureModelError(
                f"pattern has {pattern.num_faulty} faulty agents but the model allows at most {self.t}"
            )
        if pattern.omissions and not self.allows_send_omissions:
            raise FailureModelError(
                f"{self.name} does not admit sending omissions "
                f"({len(pattern.omissions)} present)"
            )
        if pattern.receive_omissions and not self.allows_receive_omissions:
            raise FailureModelError(
                f"{self.name} does not admit receive omissions "
                f"({len(pattern.receive_omissions)} present)"
            )
        return pattern

    # -- generation -----------------------------------------------------------------

    def failure_free(self) -> FailurePattern:
        """The failure-free pattern (a member of every model)."""
        return FailurePattern.failure_free(self.n)

    def sample(self, rng: random.Random, horizon: int, **kwargs) -> FailurePattern:
        """Draw a random pattern admissible under this model (subclass responsibility)."""
        raise NotImplementedError

    def enumerate(self, horizon: int, max_faulty: Optional[int] = None) -> Iterator[FailurePattern]:
        """Enumerate every admissible pattern up to ``horizon`` rounds (subclass responsibility).

        Warning: the number of patterns is exponential in ``n * horizon``; this
        is intended for the small systems used by the epistemic model checker.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class EdgeOmissionModel(FailureModel):
    """Shared machinery for the per-edge omission models (``SO``/``RO``/``GO``).

    A subclass describes itself by :meth:`slots`: for a given faulty set and
    horizon, which (round, sender, receiver) edges may be dropped, split into
    sender-charged and receiver-charged lists.  Enumeration ranges over every
    faulty set of size at most ``t`` and every subset of the combined slot
    list; sampling flips an independent coin per slot; counting is
    ``Σ C(n, k) · 2^(#slots(k))``.
    """

    samples_per_edge: ClassVar[bool] = True

    def slots(self, faulty: Sequence[AgentId], horizon: int) -> SlotLists:
        """The droppable edges for one faulty set: ``(send_slots, receive_slots)``.

        Subclass responsibility.  Slot order is part of the model's canonical
        enumeration order, so keep it deterministic.
        """
        raise NotImplementedError

    # -- shared generation ----------------------------------------------------------

    def _pattern(self, faulty: frozenset, send: Iterable[Omission],
                 receive: Iterable[Omission]) -> FailurePattern:
        return FailurePattern(n=self.n, faulty=faulty, omissions=frozenset(send),
                              receive_omissions=frozenset(receive))

    def sample(self, rng: random.Random, horizon: int,
               omission_probability: float = 0.5,
               num_faulty: Optional[int] = None) -> FailurePattern:
        """Draw a random pattern: pick a faulty set, then flip a coin per slot.

        Parameters
        ----------
        rng:
            Source of randomness (callers own the seed for reproducibility).
        horizon:
            Rounds ``0 .. horizon - 1`` may contain omissions.
        omission_probability:
            Per-slot probability of dropping the edge.
        num_faulty:
            Exact number of faulty agents; defaults to a uniform draw in ``0..t``.
        """
        if num_faulty is None:
            num_faulty = rng.randint(0, self.t)
        if not 0 <= num_faulty <= self.t:
            raise ConfigurationError(f"num_faulty={num_faulty} outside 0..{self.t}")
        faulty = frozenset(rng.sample(range(self.n), num_faulty))
        send_slots, receive_slots = self.slots(tuple(sorted(faulty)), horizon)
        send = [slot for slot in send_slots if rng.random() < omission_probability]
        receive = [slot for slot in receive_slots if rng.random() < omission_probability]
        return self._pattern(faulty, send, receive)

    def enumerate(self, horizon: int, max_faulty: Optional[int] = None) -> Iterator[FailurePattern]:
        """Enumerate all patterns with blocked edges confined to ``0 .. horizon - 1``.

        The enumeration ranges over every faulty set of size at most
        ``min(t, max_faulty)`` and, per faulty set, every subset of the slot
        list — sender-charged slots first, receiver-charged slots second, in
        ``itertools.product`` order over one keep/drop flag per slot.
        Self-omissions are not enumerated (they are unobservable and only blow
        up the state space), and an edge between two faulty agents is opened
        as exactly one slot, so no two enumerated patterns are
        delivery-equivalent.

        Each faulty set is validated once, as the one pattern that blocks all
        of its slots: every subset of valid triples is valid, so a bad slot
        raises that pattern's :class:`FailureModelError` before the faulty set
        yields anything, and the patterns themselves are assembled unchecked
        from shared parts (:meth:`_faulty_set_patterns`).

        The enumeration is lazy across faulty sets but not within one: each
        faulty set's send and receive axes are materialised before its first
        pattern, 2^|send slots| + 2^|receive slots| frozensets (plus one
        per-round code array per axis), so a caller streaming a huge
        enumeration still holds one faulty set's axes at a time.
        """
        bound = self.t if max_faulty is None else min(self.t, max_faulty)
        for size in range(bound + 1):
            for faulty in itertools.combinations(range(self.n), size):
                yield from self._faulty_set_patterns(faulty, horizon)

    def _faulty_set_patterns(self, faulty: Tuple[AgentId, ...],
                             horizon: int) -> Iterator[FailurePattern]:
        """Every pattern of one faulty set, in :meth:`enumerate`'s order.

        The sender-charged and receiver-charged slots are two axes: each
        subset of an axis is one frozenset, made once and shared by every
        pattern using it.  Per round, the blocked edge set of every pair of
        the two axes' choices in that round is also made once, so each
        pattern's :attr:`~repro.failures.pattern.FailurePattern.blocked_by_round`
        is a tuple of shared sets, gathered by the pair's per-round codes.
        """
        send_slots, receive_slots = self.slots(faulty, horizon)
        validated = FailurePattern(n=self.n, faulty=frozenset(faulty),
                                   omissions=frozenset(send_slots),
                                   receive_omissions=frozenset(receive_slots))
        # At least one round, so that every subset has a row of round entries.
        rounds = max([1, horizon] + [slot[0] + 1 for slot in itertools.chain(send_slots,
                                                                             receive_slots)])
        send_codes, send_edges = _round_codes(send_slots, rounds)
        receive_codes, receive_edges = _round_codes(receive_slots, rounds)
        #: per round: [send code][receive code] -> that round's blocked edge set.
        tables = [[[frozenset(sends + receives) for receives in _edge_subsets(received)]
                   for sends in _edge_subsets(sent)]
                  for sent, received in zip(send_edges, receive_edges)]
        send_rows = list(zip(*[list(map(table.__getitem__, codes))
                               for table, codes in zip(tables, send_codes)]))
        receive_rows = list(zip(*receive_codes))
        receive_subsets = _subsets(receive_slots)
        n, faulty_set = self.n, validated.faulty
        for send, send_row in zip(_subsets(send_slots), send_rows):
            for receive, receive_row in zip(receive_subsets, receive_rows):
                yield FailurePattern._from_parts(
                    n, faulty_set, send, receive,
                    tuple(map(operator.getitem, send_row, receive_row)))

    def count_patterns(self, horizon: int, max_faulty: Optional[int] = None) -> int:
        """The number of patterns :meth:`enumerate` would yield (without generating them)."""
        bound = self.t if max_faulty is None else min(self.t, max_faulty)
        total = 0
        for size in range(bound + 1):
            representative = tuple(range(size))
            send_slots, receive_slots = self.slots(representative, horizon)
            total += _binomial(self.n, size) * (2 ** (len(send_slots) + len(receive_slots)))
        return total


@dataclass(frozen=True)
class SendingOmissionModel(EdgeOmissionModel):
    """The sending-omissions model ``SO(t)`` of Section 3."""

    allows_send_omissions: ClassVar[bool] = True
    allows_receive_omissions: ClassVar[bool] = False

    @property
    def name(self) -> str:
        return f"SO({self.t})"

    def slots(self, faulty: Sequence[AgentId], horizon: int) -> SlotLists:
        """Sender-charged edges only: every (round, faulty sender, other receiver)."""
        send = [
            (round_index, sender, receiver)
            for sender in faulty
            for round_index in range(horizon)
            for receiver in range(self.n)
            if receiver != sender
        ]
        return send, []

    def sample(self, rng: random.Random, horizon: int,
               omission_probability: float = 0.5,
               num_faulty: Optional[int] = None) -> FailurePattern:
        """Draw a random ``SO(t)`` pattern.

        Overrides the shared per-slot sampler only to preserve the historical
        draw order (per faulty agent, then round, then receiver, in faulty-set
        iteration order), so seeded workloads generated before the model
        registry existed stay bit-for-bit reproducible.
        """
        if num_faulty is None:
            num_faulty = rng.randint(0, self.t)
        if not 0 <= num_faulty <= self.t:
            raise ConfigurationError(f"num_faulty={num_faulty} outside 0..{self.t}")
        faulty = frozenset(rng.sample(range(self.n), num_faulty))
        omissions = set()
        for agent in faulty:
            for round_index in range(horizon):
                for receiver in range(self.n):
                    if receiver == agent:
                        continue
                    if rng.random() < omission_probability:
                        omissions.add((round_index, agent, receiver))
        return FailurePattern(n=self.n, faulty=faulty, omissions=frozenset(omissions))


@dataclass(frozen=True)
class ReceiveOmissionModel(EdgeOmissionModel):
    """The receive-omissions model ``RO(t)``: faulty agents may fail to listen.

    The mirror image of ``SO(t)``: every message a faulty agent *sends* is
    delivered, but it may drop any subset of its *incoming* messages.  A
    nonfaulty agent therefore always hears from every nonfaulty agent — but,
    unlike under ``SO(t)``, a faulty agent's silence towards nobody can hide
    information: what the faulty agent failed to learn never propagates.
    """

    allows_send_omissions: ClassVar[bool] = False
    allows_receive_omissions: ClassVar[bool] = True

    @property
    def name(self) -> str:
        return f"RO({self.t})"

    def slots(self, faulty: Sequence[AgentId], horizon: int) -> SlotLists:
        """Receiver-charged edges only: every (round, other sender, faulty receiver)."""
        receive = [
            (round_index, sender, receiver)
            for receiver in faulty
            for round_index in range(horizon)
            for sender in range(self.n)
            if sender != receiver
        ]
        return [], receive


@dataclass(frozen=True)
class GeneralOmissionModel(EdgeOmissionModel):
    """The general-omissions model ``GO(t)``: faulty agents drop sends **and** receives.

    Every edge touching a faulty agent may be dropped.  An edge whose sender
    is faulty is opened as a sender-charged slot; an edge whose receiver (but
    not sender) is faulty is opened as a receiver-charged slot — each
    droppable edge appears exactly once, so the enumeration has no
    delivery-equivalent duplicates, and restricting the enumeration to the
    patterns with no receive omissions reproduces ``SO(t)`` exactly.
    """

    allows_send_omissions: ClassVar[bool] = True
    allows_receive_omissions: ClassVar[bool] = True

    @property
    def name(self) -> str:
        return f"GO({self.t})"

    def slots(self, faulty: Sequence[AgentId], horizon: int) -> SlotLists:
        """Sender-charged slots for faulty senders; receiver-charged for the rest."""
        faulty_set = frozenset(faulty)
        send = [
            (round_index, sender, receiver)
            for sender in faulty
            for round_index in range(horizon)
            for receiver in range(self.n)
            if receiver != sender
        ]
        receive = [
            (round_index, sender, receiver)
            for receiver in faulty
            for round_index in range(horizon)
            for sender in range(self.n)
            if sender != receiver and sender not in faulty_set
        ]
        return send, receive


@dataclass(frozen=True)
class CrashModel(FailureModel):
    """The crash-failure model: a faulty agent may crash mid-round and never recover.

    The paper treats crash failures as the special case of ``SO(t)`` where
    ``F(m, i, j) = 0`` implies ``F(m', i, j') = 0`` for all ``m' > m`` and all
    receivers ``j'``.  We model a crash as a pair (crash round, subset of
    receivers reached in the crash round): the agent sends normally before the
    crash round, reaches only the given subset during it, and sends nothing
    afterwards.
    """

    allows_send_omissions: ClassVar[bool] = True
    allows_receive_omissions: ClassVar[bool] = False

    @property
    def name(self) -> str:
        return f"Crash({self.t})"

    def validate(self, pattern: FailurePattern) -> FailurePattern:
        super().validate(pattern)
        # Only the rounds the pattern explicitly describes are checked: a crash
        # pattern generated up to some horizon is silent about later rounds.
        horizon = pattern.max_round() + 1
        for agent in pattern.faulty:
            crashed = False
            for round_index in range(horizon):
                blocked = pattern.blocked_receivers(round_index, agent)
                others = frozenset(range(self.n)) - {agent}
                if crashed and blocked & others != others:
                    raise FailureModelError(
                        f"agent {agent} resumes sending after a crash at round {round_index}"
                    )
                if blocked & others == others:
                    crashed = True
        return pattern

    def crash_pattern(self, crashes: dict[AgentId, tuple[int, Iterable[AgentId]]],
                      horizon: int) -> FailurePattern:
        """Build a crash pattern.

        Parameters
        ----------
        crashes:
            Maps a crashing agent to ``(crash_round, receivers_reached)`` — the
            agent's round-``crash_round`` message reaches only the listed
            receivers, and nothing is sent in later rounds.
        horizon:
            Rounds are generated up to (but excluding) this index.
        """
        if len(crashes) > self.t:
            raise FailureModelError(f"{len(crashes)} crashes exceed the bound t={self.t}")
        omissions = set()
        for agent, (crash_round, reached) in crashes.items():
            reached_set = frozenset(reached)
            for receiver in range(self.n):
                if receiver == agent:
                    continue
                if receiver not in reached_set:
                    omissions.add((crash_round, agent, receiver))
            for round_index in range(crash_round + 1, horizon):
                for receiver in range(self.n):
                    if receiver != agent:
                        omissions.add((round_index, agent, receiver))
        return FailurePattern(n=self.n, faulty=frozenset(crashes), omissions=frozenset(omissions))

    def sample(self, rng: random.Random, horizon: int,
               num_faulty: Optional[int] = None) -> FailurePattern:
        """Draw a random crash pattern: each faulty agent crashes at a random round."""
        if num_faulty is None:
            num_faulty = rng.randint(0, self.t)
        faulty = rng.sample(range(self.n), num_faulty)
        crashes = {}
        for agent in faulty:
            crash_round = rng.randint(0, max(horizon - 1, 0))
            receivers = [r for r in range(self.n) if r != agent and rng.random() < 0.5]
            crashes[agent] = (crash_round, receivers)
        return self.crash_pattern(crashes, horizon)

    def enumerate(self, horizon: int, max_faulty: Optional[int] = None) -> Iterator[FailurePattern]:
        """Enumerate crash patterns: each faulty agent picks a crash round and reached subset."""
        bound = self.t if max_faulty is None else min(self.t, max_faulty)
        for size in range(bound + 1):
            for faulty in itertools.combinations(range(self.n), size):
                per_agent_choices = []
                for agent in faulty:
                    others = [r for r in range(self.n) if r != agent]
                    choices = []
                    for crash_round in range(horizon):
                        for k in range(len(others) + 1):
                            for reached in itertools.combinations(others, k):
                                choices.append((crash_round, reached))
                    # also "never crashes visibly" (faulty but well-behaved)
                    choices.append((horizon, tuple(others)))
                    per_agent_choices.append(choices)
                for combo in itertools.product(*per_agent_choices):
                    crashes = {agent: choice for agent, choice in zip(faulty, combo)}
                    yield self.crash_pattern(crashes, horizon)


@dataclass(frozen=True)
class FailureFreeModel(FailureModel):
    """A degenerate model containing only the failure-free pattern."""

    allows_send_omissions: ClassVar[bool] = False
    allows_receive_omissions: ClassVar[bool] = False

    def __init__(self, n: int) -> None:  # noqa: D401 - thin constructor
        super().__init__(n=n, t=0)

    @property
    def name(self) -> str:
        return "FailureFree"

    def validate(self, pattern: FailurePattern) -> FailurePattern:
        super().validate(pattern)
        if pattern.faulty:
            raise FailureModelError("failure-free model admits only the empty pattern")
        return pattern

    def sample(self, rng: random.Random, horizon: int) -> FailurePattern:
        return self.failure_free()

    def enumerate(self, horizon: int, max_faulty: Optional[int] = None) -> Iterator[FailurePattern]:
        yield self.failure_free()


# ------------------------------------------------------------------ the model registry

#: Registered model name -> model class.  Populated by :func:`register_model`;
#: the first name a class registers under is its canonical key.
MODEL_REGISTRY: Dict[str, Type[FailureModel]] = {}

_CANONICAL_KEYS: List[str] = []


def register_model(*keys: str) -> Callable[[Type[FailureModel]], Type[FailureModel]]:
    """Class decorator: register a failure model under one or more names.

    The first key is canonical (used by :func:`available_models` and reports);
    the rest are aliases (e.g. ``"so"`` for ``"sending-omission"``).
    """
    if not keys:
        raise ConfigurationError("register_model needs at least one name")

    def decorate(cls: Type[FailureModel]) -> Type[FailureModel]:
        for key in keys:
            existing = MODEL_REGISTRY.get(key)
            if existing is not None and existing is not cls:
                raise ConfigurationError(
                    f"failure-model name {key!r} already registered to {existing.__name__}"
                )
            MODEL_REGISTRY[key] = cls
        if keys[0] not in _CANONICAL_KEYS:
            _CANONICAL_KEYS.append(keys[0])
        return cls

    return decorate


def available_models() -> Tuple[str, ...]:
    """The canonical names of every registered failure model, in registration order."""
    return tuple(_CANONICAL_KEYS)


def model_class(key: str) -> Type[FailureModel]:
    """Resolve a registered model name (or alias) to its class."""
    try:
        return MODEL_REGISTRY[key.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown failure model {key!r}; available: {', '.join(available_models())}"
        ) from None


def make_model(key: str, n: int, t: int = 0) -> FailureModel:
    """Instantiate a registered failure model by name.

    ``FailureFreeModel`` takes no failure bound; every other model is built as
    ``cls(n=n, t=t)``.
    """
    cls = model_class(key)
    if cls is FailureFreeModel:
        if t != 0:
            raise ConfigurationError("the failure-free model has no failure bound; use t=0")
        return cls(n)
    return cls(n=n, t=t)


def resolve_model(model: "FailureModel | str", n: int, t: int) -> FailureModel:
    """Coerce a model-or-name argument to a :class:`FailureModel` for ``(n, t)``.

    Strings go through :func:`make_model`; instances must match the requested
    ``(n, t)`` exactly — a looser instance bound would make contexts and
    workloads silently enumerate/sample more faulty agents than the declared
    ``t``, and downstream checks (EBA deadlines, the knowledge-based programs)
    are calibrated to that ``t``.
    """
    if isinstance(model, str):
        return make_model(model, n, t)
    if model.n != n:
        raise ConfigurationError(
            f"failure model {model.name} is for {model.n} agents, expected {n}"
        )
    if model.t != t:
        raise ConfigurationError(
            f"failure model {model.name} has failure bound {model.t}, "
            f"but the caller asks for t={t}; build the model for t={t} instead"
        )
    return model


register_model("sending-omission", "so")(SendingOmissionModel)
register_model("receive-omission", "ro")(ReceiveOmissionModel)
register_model("general-omission", "go")(GeneralOmissionModel)
register_model("crash")(CrashModel)
register_model("failure-free", "none")(FailureFreeModel)


def _subsets(slots: Sequence[Omission]) -> List[FrozenSet[Omission]]:
    """Every subset of ``slots``, in ``itertools.product`` order over keep/drop flags.

    Subset ``i`` keeps slot ``p`` iff bit ``len(slots) - 1 - p`` of ``i`` is set,
    so the list doubles per slot, last slot first; a union copies its left
    set's stored hashes instead of rehashing every triple.
    """
    subsets = [frozenset()]
    for slot in reversed(slots):
        single = frozenset((slot,))
        subsets += [subset | single for subset in subsets]
    return subsets


def _round_codes(slots: Sequence[Omission],
                 rounds: int) -> Tuple[List[List[int]], List[List[Tuple[AgentId, AgentId]]]]:
    """Per round: every subset's code over that round's slots, and their edges.

    Subsets are numbered as in :func:`_subsets`; bit ``k`` of a subset's
    round-``m`` code says whether it keeps the ``k``-th slot of round ``m``.
    """
    subsets = np.arange(1 << len(slots))
    codes, edges = [], []
    for round_index in range(rounds):
        positions = [position for position, slot in enumerate(slots) if slot[0] == round_index]
        code = np.zeros_like(subsets)
        for bit, position in enumerate(positions):
            code |= ((subsets >> (len(slots) - 1 - position)) & 1) << bit
        codes.append(code.tolist())
        edges.append([(slots[position][1], slots[position][2]) for position in positions])
    return codes, edges


def _edge_subsets(edges: Sequence[Tuple[AgentId, AgentId]]) -> List[List[Tuple[AgentId, AgentId]]]:
    """Every subset of ``edges``, indexed by its code (bit ``k`` keeps ``edges[k]``)."""
    return [[edge for bit, edge in enumerate(edges) if code >> bit & 1]
            for code in range(1 << len(edges))]


def _binomial(n: int, k: int) -> int:
    """Binomial coefficient ``n choose k`` (small helper to avoid a math import cycle)."""
    result = 1
    for i in range(k):
        result = result * (n - i) // (i + 1)
    return result
