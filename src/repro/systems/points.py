"""Points of an interpreted system.

A *point* is a pair ``(run, time)``.  Runs are identified by their index in the
system's run list, so a point is the hashable pair ``(run_index, time)``.
Point ``(r, m)`` has the dense index ``r * (horizon + 1) + m``; the model
checker keeps sets of points as ``uint64`` word arrays over that index (see
:mod:`repro.logic.words`) and hands them out as ``frozenset[Point]``.
"""

from __future__ import annotations

from typing import NamedTuple


class Point(NamedTuple):
    """A point ``(r, m)`` of an interpreted system."""

    run_index: int
    time: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"(r{self.run_index}, {self.time})"
