"""The domain keys: one content key per artifact family the library caches.

========================  =====================================================
kind                      keyed by
========================  =====================================================
``run``                   one run task (protocol, n, preferences,
                          pattern, horizon)
``resultset``             a whole :class:`~repro.api.specs.SweepSpec`
``system``                (protocol, n, horizon, patterns, preference vectors)
``context-system``        (protocol, n, t, horizon, failure model,
                          max_faulty_enumerated, all ``2^n`` preference
                          vectors): a system built by
                          :meth:`~repro.systems.contexts.EBAContext.build_system`,
                          keyed by the context's definition, not its patterns
``implementation-report`` (protocol, program, context, max_time,
                          max_mismatches)
``safety-report``         (protocol, context, max_violations)
``equivalence-report``    (first program, second program, protocol, context,
                          max_time): whether the two programs prescribe the
                          same actions over the protocol's system in the
                          context (``programs_equivalent``)
========================  =====================================================

The run API (``RunSpec.run`` / ``SweepSpec.run`` / ``Sweep.run`` with a
store) serves each run it has a ``run`` entry for and simulates only the
others.  Per-run caching is what makes sweeps resumable: an interrupted sweep
has already persisted every completed run, so rerunning it restarts at the
first missing key (see :meth:`repro.api.specs.SweepSpec.missing_tasks`).

A context-built system is a pure function of the context's definition and the
protocol, so ``context-system`` keys that definition instead of listing and
hashing every failure pattern (2 049 at n=4, 20 481 at n=5): a store hit
enumerates nothing.  That is as sound as keying by content because every key
folds in :func:`~repro.store.keys.code_fingerprint`, so the enumeration code
is part of the key.  It holds only while that code lies inside ``repro``: an
:class:`~repro.systems.contexts.EBAContext` subclass, or a failure model whose
class is defined outside the package, is keyed by ``system`` (its patterns)
instead.
"""

from __future__ import annotations

from typing import Optional, Sequence, TYPE_CHECKING

from .keys import content_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.specs import SweepSpec
    from ..simulation.batch import RunTask


# ------------------------------------------------------------------ domain keys

def run_task_key(task: "RunTask") -> str:
    """The content key of one simulation run (a run task)."""
    protocol, n, preferences, pattern, horizon = task
    return content_key("run", protocol, n, tuple(preferences), pattern, horizon)


def sweep_key(spec: "SweepSpec") -> str:
    """The content key of a whole sweep's :class:`~repro.api.results.ResultSet`.

    The spec is a frozen dataclass, so its token covers protocols, workload,
    horizon, and seed; any field change mints a different key.
    """
    return content_key("resultset", spec)


def system_key(protocol, n: int, horizon: int, patterns: Sequence,
               preference_vectors: Sequence) -> str:
    """The content key of a built :class:`~repro.systems.interpreted.InterpretedSystem`."""
    return content_key("system", protocol, n, horizon, tuple(patterns),
                       tuple(preference_vectors))


def context_system_key(protocol, context) -> str:
    """The definition key of ``context.build_system(protocol)``'s system.

    Folds in the protocol and the context's ``n``, ``t``, ``horizon``,
    ``failure_model`` and ``max_faulty_enumerated``, plus a tag for the full
    preference enumeration; ``name`` is informational and left out.  Never
    equal to a :func:`system_key`, whose kind differs.  Sound only when the
    code fingerprint covers the context's enumeration (see the module
    docstring); :meth:`~repro.systems.contexts.EBAContext.build_system` checks
    that before using it.
    """
    return content_key("context-system", protocol, context.n, context.t,
                       context.horizon, context.failure_model,
                       context.max_faulty_enumerated, "all-preference-vectors")


def implementation_report_key(protocol, program, context,
                              max_time: Optional[int], max_mismatches: int) -> str:
    """The content key of a :func:`~repro.kbp.implementation.check_implements` report."""
    return content_key("implementation-report", protocol, program, context,
                       max_time, max_mismatches)


def safety_report_key(protocol, context, max_violations: int) -> str:
    """The content key of a :func:`~repro.kbp.safety.check_safety` report."""
    return content_key("safety-report", protocol, context, max_violations)


def equivalence_report_key(first, second, protocol, context,
                           max_time: Optional[int]) -> str:
    """The content key of a :func:`~repro.kbp.implementation.programs_equivalent`
    verdict over ``context.build_system(protocol)``'s system."""
    return content_key("equivalence-report", first, second, protocol, context, max_time)

