"""Interpreted systems, points, and EBA context descriptors.

Index convention: a point ``(r, m)`` — run index ``r``, time ``m`` — maps to
the dense bit index ``r * (horizon + 1) + m``, run-major and time-minor, in
exactly the order of ``InterpretedSystem.points``.  Every atom and every point
set the model checker computes is a ``uint64`` word array over that range (see
:mod:`repro.logic.words` and ``docs/performance.md``).
"""

from .contexts import EBAContext, gamma_basic, gamma_fip, gamma_min
from .interpreted import (
    AgentPartition,
    InterpretedSystem,
    build_system,
    build_system_for_model,
)
from .points import Point

__all__ = [
    "AgentPartition",
    "EBAContext",
    "InterpretedSystem",
    "Point",
    "build_system",
    "build_system_for_model",
    "gamma_basic",
    "gamma_fip",
    "gamma_min",
]
