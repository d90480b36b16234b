"""The naive set-based model checker, retained as a differential-testing oracle.

This is the original ``frozenset[Point]`` evaluator that
:class:`repro.logic.semantics.ModelChecker` replaced with word arrays.  It
is deliberately straightforward — every operator materialises explicit sets of
:class:`~repro.systems.points.Point` objects — so that the property tests can
assert, constructor by constructor, that the optimised word-array evaluation
computes *exactly* the same satisfying sets on randomised small systems (see
``tests/test_logic_bitset_reference.py``).

It is not used on any production path; prefer
:class:`repro.logic.semantics.ModelChecker`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from ..core.errors import ModelCheckingError
from ..systems.interpreted import InterpretedSystem
from ..systems.points import Point
from .formula import (
    Always,
    AlwaysFuture,
    And,
    CommonKnowledge,
    DecidedEquals,
    Eventually,
    EveryoneKnows,
    Formula,
    Group,
    InitEquals,
    IsNonfaulty,
    Knows,
    NONFAULTY,
    Next,
    Not,
    Or,
    Previous,
    TimeEquals,
    TrueFormula,
)

FrozenPointSet = FrozenSet[Point]


class ReferenceModelChecker:
    """Evaluates formulas with explicit frozensets of points (slow, obviously correct)."""

    def __init__(self, system: InterpretedSystem) -> None:
        self.system = system
        self._cache: Dict[Formula, FrozenPointSet] = {}
        self._all_points: FrozenPointSet = frozenset(system.points)

    # ------------------------------------------------------------------ public API

    def satisfying_points(self, formula: Formula) -> FrozenPointSet:
        """The set of points at which ``formula`` holds."""
        if formula not in self._cache:
            self._cache[formula] = self._evaluate(formula)
        return self._cache[formula]

    def holds(self, formula: Formula, point: Point) -> bool:
        """Whether ``formula`` holds at ``point``."""
        return point in self.satisfying_points(formula)

    def valid(self, formula: Formula) -> bool:
        """Whether ``formula`` holds at every point of the system."""
        return self.satisfying_points(formula) == self._all_points

    def counterexamples(self, formula: Formula, limit: int = 5) -> list[Point]:
        """Up to ``limit`` points at which ``formula`` fails, in system order."""
        failures: list[Point] = []
        if limit <= 0:
            return failures
        satisfying = self.satisfying_points(formula)
        for point in self.system.points:
            if point not in satisfying:
                failures.append(point)
                if len(failures) >= limit:
                    break
        return failures

    # ------------------------------------------------------------------ group resolution

    def group_members(self, group: Group, point: Point) -> FrozenSet[int]:
        """Resolve a (possibly indexical) group at a point."""
        if group == NONFAULTY:
            return self.system.nonfaulty(point)
        if isinstance(group, frozenset):
            return group
        if isinstance(group, (set, tuple, list)):
            return frozenset(group)
        raise ModelCheckingError(f"unsupported group specification: {group!r}")

    # ------------------------------------------------------------------ evaluation

    def _evaluate(self, formula: Formula) -> FrozenPointSet:
        if isinstance(formula, TrueFormula):
            return self._all_points
        if isinstance(formula, InitEquals):
            return frozenset(
                point for point in self.system.points
                if self.system.run(point).preferences[formula.agent] == formula.value
            )
        if isinstance(formula, DecidedEquals):
            return frozenset(
                point for point in self.system.points
                if self.system.local_state(point, formula.agent).decided == formula.value
            )
        if isinstance(formula, TimeEquals):
            return frozenset(point for point in self.system.points if point.time == formula.time)
        if isinstance(formula, IsNonfaulty):
            return frozenset(
                point for point in self.system.points
                if formula.agent in self.system.nonfaulty(point)
            )
        if isinstance(formula, Not):
            return self._all_points - self.satisfying_points(formula.operand)
        if isinstance(formula, And):
            result = self._all_points
            for operand in formula.operands:
                result = result & self.satisfying_points(operand)
            return result
        if isinstance(formula, Or):
            result: Set[Point] = set()
            for operand in formula.operands:
                result |= self.satisfying_points(operand)
            return frozenset(result)
        if isinstance(formula, Knows):
            return self._evaluate_knows(formula.agent, self.satisfying_points(formula.operand))
        if isinstance(formula, EveryoneKnows):
            return self._evaluate_everyone_knows(formula.group,
                                                 self.satisfying_points(formula.operand))
        if isinstance(formula, CommonKnowledge):
            return self._evaluate_common_knowledge(formula.group,
                                                   self.satisfying_points(formula.operand))
        if isinstance(formula, Next):
            inner = self.satisfying_points(formula.operand)
            return frozenset(
                point for point in self.system.points
                if point.time + 1 <= self.system.horizon
                and Point(point.run_index, point.time + 1) in inner
            )
        if isinstance(formula, Previous):
            inner = self.satisfying_points(formula.operand)
            return frozenset(
                point for point in self.system.points
                if point.time > 0 and Point(point.run_index, point.time - 1) in inner
            )
        if isinstance(formula, AlwaysFuture):
            inner = self.satisfying_points(formula.operand)
            return frozenset(
                point for point in self.system.points
                if all(Point(point.run_index, later) in inner
                       for later in range(point.time, self.system.horizon + 1))
            )
        if isinstance(formula, Always):
            inner = self.satisfying_points(formula.operand)
            return frozenset(
                point for point in self.system.points
                if all(Point(point.run_index, time) in inner
                       for time in range(self.system.horizon + 1))
            )
        if isinstance(formula, Eventually):
            inner = self.satisfying_points(formula.operand)
            return frozenset(
                point for point in self.system.points
                if any(Point(point.run_index, later) in inner
                       for later in range(point.time, self.system.horizon + 1))
            )
        raise ModelCheckingError(f"unsupported formula type: {type(formula).__name__}")

    def _evaluate_knows(self, agent: int, inner: FrozenPointSet) -> FrozenPointSet:
        result: Set[Point] = set()
        for _, points in self.system.equivalence_classes(agent).items():
            if all(point in inner for point in points):
                result.update(points)
        return frozenset(result)

    def _evaluate_everyone_knows(self, group: Group, inner: FrozenPointSet) -> FrozenPointSet:
        knows_by_agent: Dict[int, FrozenPointSet] = {
            agent: self._evaluate_knows(agent, inner) for agent in range(self.system.n)
        }
        result: Set[Point] = set()
        for point in self.system.points:
            members = self.group_members(group, point)
            if all(point in knows_by_agent[agent] for agent in members):
                result.add(point)
        return frozenset(result)

    def _evaluate_common_knowledge(self, group: Group, inner: FrozenPointSet) -> FrozenPointSet:
        """Greatest fixpoint of ``X = E_S(φ ∧ X)`` (standard characterization of ``C_S φ``)."""
        current: FrozenPointSet = self._all_points
        while True:
            target = inner & current
            knows_by_agent: Dict[int, FrozenPointSet] = {
                agent: self._evaluate_knows(agent, target) for agent in range(self.system.n)
            }
            updated: Set[Point] = set()
            for point in current:
                members = self.group_members(group, point)
                if all(point in knows_by_agent[agent] for agent in members):
                    updated.add(point)
            updated_frozen = frozenset(updated)
            if updated_frozen == current:
                return updated_frozen
            current = updated_frozen
