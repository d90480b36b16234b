"""EBA context descriptors: ``γ_min``, ``γ_basic``, ``γ_fip`` (Sections 6 and 7).

An EBA context ``γ = (E, F, π)`` fixes the information exchange, the failure
model, and the interpretation of the primitive propositions.  In this library
the exchange is supplied by the action protocol (every protocol constructs its
matching exchange) and the interpretation is the standard one hard-wired into
the model checker, so a context descriptor carries the remaining data: the
number of agents, the failure bound, the failure model to enumerate, and the
horizon up to which systems are built.

Contexts exist to make the implementation-checking experiments read like the
paper: ``gamma_min(n, t).build_system(MinProtocol(t))`` is the system
``I_{γ_min,n,t, P_min}`` of Theorem 6.5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, TYPE_CHECKING

from ..failures.models import FailureModel, PatternOrbit, SendingOmissionModel, resolve_model
from ..failures.pattern import FailurePattern
from ..protocols.base import ActionProtocol
from .interpreted import DefinedPatterns, InterpretedSystem, build_system

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..store import StoreLike


@dataclass(frozen=True)
class EBAContext:
    """A family member ``γ_{·,n,t}``: failure model plus system-building parameters.

    Attributes
    ----------
    name:
        ``"gamma_min"``, ``"gamma_basic"``, or ``"gamma_fip"`` (informational).
    n, t:
        Number of agents and the failure bound.
    horizon:
        How many rounds to simulate when building systems; defaults to the
        termination bound ``t + 2`` which is enough for every decision of the
        paper's protocols to be visible.
    failure_model:
        The failure model ``F`` whose patterns are enumerated.
    max_faulty_enumerated:
        Optionally cap the number of faulty agents enumerated (the knowledge
        tests are unchanged for the properties we check as long as at least one
        faulty agent is allowed; this keeps ``n = 4`` systems tractable).
    """

    name: str
    n: int
    t: int
    horizon: int
    failure_model: FailureModel
    max_faulty_enumerated: Optional[int] = None

    def patterns(self) -> Iterator[FailurePattern]:
        """Enumerate the failure patterns of the context (up to the horizon)."""
        if self.max_faulty_enumerated is None:
            return self.failure_model.enumerate(self.horizon)
        return self.failure_model.enumerate(self.horizon,
                                            max_faulty=self.max_faulty_enumerated)

    def orbits(self) -> Iterator["PatternOrbit"]:
        """Enumerate the context's patterns as agent-permutation orbits.

        One canonical representative per symmetry class, with its exact orbit
        size (see :meth:`repro.failures.models.FailureModel.enumerate_orbits`).
        """
        return self.failure_model.enumerate_orbits(
            self.horizon, max_faulty=self.max_faulty_enumerated)

    def build_system(self, protocol: ActionProtocol,
                     store: "StoreLike" = None) -> InterpretedSystem:
        """Build ``I_{γ, P}`` for the given action protocol.

        The build always runs in-process (see
        :func:`repro.systems.interpreted.build_system`).  ``store``
        serves the built system from the content-addressed artifact cache
        (see :mod:`repro.store`) when an identical ``(γ, P)`` build was done
        before.  The system is keyed by the context's definition
        (:func:`~repro.store.context_system_key`), so a hit enumerates no
        pattern, unless the code fingerprint does not cover the enumeration:
        a subclass of this class, or a failure model defined outside
        ``repro``, keys by the patterns themselves.
        """
        model_in_repro = type(self.failure_model).__module__.split(".")[0] == "repro"
        if type(self) is EBAContext and model_in_repro:
            from ..store import context_system_key
            patterns: Iterable[FailurePattern] = DefinedPatterns(
                self.patterns, lambda: context_system_key(protocol, self))
        else:
            patterns = self.patterns()
        return build_system(protocol, self.n, self.horizon, patterns, store=store)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.name}(n={self.n}, t={self.t}, horizon={self.horizon}, "
                f"model={self.failure_model.name})")


def _default_horizon(t: int, horizon: Optional[int]) -> int:
    return t + 2 if horizon is None else horizon


def _make_context(name: str, n: int, t: int, horizon: Optional[int],
                  max_faulty_enumerated: Optional[int],
                  failure_model: "FailureModel | str | None") -> EBAContext:
    if failure_model is None:
        model = SendingOmissionModel(n=n, t=t)
    else:
        model = resolve_model(failure_model, n, t)
    return EBAContext(
        name=name,
        n=n,
        t=t,
        horizon=_default_horizon(t, horizon),
        failure_model=model,
        max_faulty_enumerated=max_faulty_enumerated,
    )


def gamma_min(n: int, t: int, horizon: Optional[int] = None,
              max_faulty_enumerated: Optional[int] = None,
              failure_model: "FailureModel | str | None" = None) -> EBAContext:
    """The minimal context ``γ_{min,n,t}`` (pair it with :class:`~repro.protocols.MinProtocol`).

    ``failure_model`` swaps the failure regime: the paper's default is
    ``SO(t)``, but any registered model (an instance, or a name such as
    ``"general-omission"`` resolved via
    :func:`repro.failures.models.make_model`) can be enumerated instead.
    """
    return _make_context("gamma_min", n, t, horizon, max_faulty_enumerated, failure_model)


def gamma_basic(n: int, t: int, horizon: Optional[int] = None,
                max_faulty_enumerated: Optional[int] = None,
                failure_model: "FailureModel | str | None" = None) -> EBAContext:
    """The basic context ``γ_{basic,n,t}`` (pair it with :class:`~repro.protocols.BasicProtocol`).

    ``failure_model`` swaps the failure regime exactly as in :func:`gamma_min`.
    """
    return _make_context("gamma_basic", n, t, horizon, max_faulty_enumerated, failure_model)


def gamma_fip(n: int, t: int, horizon: Optional[int] = None,
              max_faulty_enumerated: Optional[int] = None,
              failure_model: "FailureModel | str | None" = None) -> EBAContext:
    """The full-information context ``γ_{fip,n,t}`` (pair it with ``OptimalFipProtocol``).

    ``failure_model`` swaps the failure regime exactly as in :func:`gamma_min`.
    """
    return _make_context("gamma_fip", n, t, horizon, max_faulty_enumerated, failure_model)
