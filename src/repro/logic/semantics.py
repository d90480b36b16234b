"""Word-array model checking of epistemic temporal formulas over finite systems.

The evaluator computes, for each sub-formula, the set of points of the
interpreted system at which it holds (memoised per formula object), as a numpy
``uint64`` word array (point ``p`` = bit ``p % 64`` of word ``p // 64``; see
:mod:`repro.logic.words`).  The propositional connectives are vectorized word
operations, the temporal operators are cross-word shift pipelines, the
``K_i``/``E_S``/``C_S`` sweeps run word-level AND/OR over the system's stacked
class-mask matrix (or an ``np.bincount`` class reduction when an agent has
many classes), and :meth:`ModelChecker.counterexamples` recovers failing
points with ``np.nonzero`` instead of Python bit iteration.

Word arrays are the checker's only point-set representation;
:meth:`ModelChecker.satisfying_points` decodes one into a plain
``frozenset[Point]`` for callers that want explicit points, the same type the
straightforward set-based evaluator in :mod:`repro.logic.reference` returns.
That evaluator is the ground-truth oracle; the differential suite in
``tests/test_logic_bitset_reference.py`` checks the two against each other on
every formula constructor.

Temporal operators are given the natural *bounded-horizon* semantics: ``⃝ φ``
is false at the final time of the system (there is no next point), and ``□``,
``⊡``, ``◇`` quantify over the times that exist in the system.  The library
only evaluates knowledge-based-program tests at times strictly below the
horizon, where the bounded and unbounded semantics agree for the formulas the
paper uses (their temporal depth is one).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, TYPE_CHECKING

import numpy as np

from ..core.cancel import checkpoint
from ..core.errors import ModelCheckingError
from ..obs import trace as _trace
from ..systems.interpreted import InterpretedSystem
from ..systems.points import Point
from . import words as _words
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

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy.typing as npt

__all__ = ["ModelChecker", "holds", "satisfying_points", "valid"]


class ModelChecker:
    """Evaluates formulas over one interpreted system, caching per-formula results."""

    def __init__(self, system: InterpretedSystem) -> None:
        self.system = system
        self._cache: Dict[Formula, "npt.NDArray[Any]"] = {}
        self._full_words: "npt.NDArray[Any]" = system.full_words()
        self._final_words: "npt.NDArray[Any]" = system.time_words(system.horizon)
        self._initial_words: "npt.NDArray[Any]" = system.time_words(0)

    # ------------------------------------------------------------------ public API

    def satisfying_points(self, formula: Formula) -> FrozenSet[Point]:
        """The set of points at which ``formula`` holds."""
        indices = _words.indices_of_words(self.satisfying_words(formula),
                                          self.system.num_points)
        return frozenset(self.system.point_at(int(index)) for index in indices)

    def satisfying_words(self, formula: Formula) -> "npt.NDArray[Any]":
        """The satisfying set as a canonical ``uint64`` word array."""
        result = self._cache.get(formula)
        if result is None:
            checkpoint()
            if _trace.is_active():
                # Guarded: the disabled path must not allocate the attrs
                # dict per cache miss (this is the checker's hot loop).
                with _trace.span("mc.eval", "check", {
                        "constructor": type(formula).__name__}) as span:
                    result = self._evaluate_words(formula)
                    span.set("cardinality", int(
                        _words.unpack_words(result, self.system.num_points).sum()))
            else:
                result = self._evaluate_words(formula)
            self._cache[formula] = result
        return result

    def holds(self, formula: Formula, point: Point) -> bool:
        """Whether ``formula`` holds at ``point``."""
        index = self.system.point_index(point)
        word = self.satisfying_words(formula)[index >> 6]
        return bool((int(word) >> (index & 63)) & 1)

    def valid(self, formula: Formula) -> bool:
        """Whether ``formula`` holds at every point of the system."""
        return bool(np.array_equal(self.satisfying_words(formula), self._full_words))

    def counterexamples(self, formula: Formula, limit: int = 5) -> list[Point]:
        """Up to ``limit`` points at which ``formula`` fails (for diagnostics).

        Counterexamples are listed in the system's deterministic point order
        (run-major, time-minor); the failing points are recovered with an
        ``np.nonzero``-style vectorized scan instead of Python bit iteration
        (the ordering/limit contract is pinned by regression tests against
        the reference checker).
        """
        failing = self._full_words & ~self.satisfying_words(formula)
        indices = _words.indices_of_words(failing, self.system.num_points)
        return [self.system.point_at(int(index)) for index in indices[:limit]]

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
    #
    # Every helper keeps its result canonical (tail bits of the last word
    # zero), so word-wise equality is set equality throughout.  The temporal
    # operators stay within each run's ``horizon + 1``-bit segment: a shift
    # down moves the value at ``(r, m + 1)`` onto ``(r, m)``, and the
    # final-time mask keeps the low bit of run ``r + 1`` from leaking into the
    # last time of run ``r`` (symmetrically for a shift up and time 0).

    def _evaluate_words(self, formula: Formula) -> "npt.NDArray[Any]":
        system = self.system
        if isinstance(formula, TrueFormula):
            return self._full_words.copy()
        if isinstance(formula, InitEquals):
            return system.init_words(formula.agent, formula.value).copy()
        if isinstance(formula, DecidedEquals):
            return system.decided_words(formula.agent, formula.value).copy()
        if isinstance(formula, TimeEquals):
            return system.time_words(formula.time).copy()
        if isinstance(formula, IsNonfaulty):
            return system.nonfaulty_words(formula.agent).copy()
        if isinstance(formula, Not):
            return self._full_words & ~self.satisfying_words(formula.operand)
        if isinstance(formula, And):
            result = self._full_words.copy()
            for operand in formula.operands:
                result &= self.satisfying_words(operand)
            return result
        if isinstance(formula, Or):
            result = _words.zero_words(system.num_points)
            for operand in formula.operands:
                result |= self.satisfying_words(operand)
            return result
        if isinstance(formula, Knows):
            return self._knows_words(formula.agent, self.satisfying_words(formula.operand))
        if isinstance(formula, EveryoneKnows):
            return self._everyone_knows_words(formula.group,
                                              self.satisfying_words(formula.operand))
        if isinstance(formula, CommonKnowledge):
            return self._common_knowledge_words(formula.group,
                                                self.satisfying_words(formula.operand))
        if isinstance(formula, Next):
            return _words.shift_down_words(self.satisfying_words(formula.operand)) \
                & ~self._final_words
        if isinstance(formula, Previous):
            return _words.shift_up_words(self.satisfying_words(formula.operand),
                                         self._full_words) & ~self._initial_words
        if isinstance(formula, AlwaysFuture):
            return self._always_future_words(self.satisfying_words(formula.operand))
        if isinstance(formula, Always):
            return self._always_words(self.satisfying_words(formula.operand))
        if isinstance(formula, Eventually):
            return self._eventually_words(self.satisfying_words(formula.operand))
        raise ModelCheckingError(f"unsupported formula type: {type(formula).__name__}")

    def _always_future_words(self, inner: "npt.NDArray[Any]") -> "npt.NDArray[Any]":
        """``□ φ``: φ at every time from now to the horizon (suffix AND per run)."""
        final = self._final_words
        result = inner.copy()
        for _ in range(self.system.horizon):
            result &= (_words.shift_down_words(result) & ~final) | final
        return result

    def _eventually_words(self, inner: "npt.NDArray[Any]") -> "npt.NDArray[Any]":
        """``◇ φ``: φ at some time from now to the horizon (suffix OR per run)."""
        final = self._final_words
        result = inner.copy()
        for _ in range(self.system.horizon):
            result |= _words.shift_down_words(result) & ~final
        return result

    def _always_words(self, inner: "npt.NDArray[Any]") -> "npt.NDArray[Any]":
        """``⊡ φ``: φ at every time of the run — all-or-nothing per run segment."""
        initial = self._initial_words
        result = self._always_future_words(inner) & initial
        for _ in range(self.system.horizon):
            result |= _words.shift_up_words(result, self._full_words) & ~initial
        return result

    def _knows_words(self, agent: int, inner: "npt.NDArray[Any]") -> "npt.NDArray[Any]":
        """``K_agent``: a class contained in ``inner`` contributes wholesale.

        Two vectorized strategies, selected by the agent's class count:

        * **dense** (few classes): AND each row of the stacked
          ``(num_classes, num_words)`` class-mask matrix against ``~inner``
          and OR the fully-contained rows back together — pure word-level
          AND/OR, no per-point data;
        * **bincount** (many classes): unpack ``inner`` to per-point bits and
          reduce per class id with :func:`repro.logic.words.class_all`, which
          stays linear in points regardless of how many classes there are.
        """
        partition = self.system.partition(agent)
        num_classes = len(partition.class_states)
        if num_classes <= _words.DENSE_CLASS_LIMIT:
            matrix = self.system.partition_words(agent)
            if not len(matrix):
                return _words.zero_words(self.system.num_points)
            escapes = np.bitwise_and(matrix, ~inner[np.newaxis, :])
            contained = ~escapes.any(axis=1)
            if not contained.any():
                return _words.zero_words(self.system.num_points)
            return np.bitwise_or.reduce(matrix[contained], axis=0)
        class_ids = self.system.class_id_array(agent)
        bits = _words.unpack_words(inner, self.system.num_points)
        return _words.pack_bits(_words.class_all(class_ids, num_classes, bits))

    def _everyone_knows_words(self, group: Group,
                              inner: "npt.NDArray[Any]") -> "npt.NDArray[Any]":
        """``E_S``: every member of the group knows the operand."""
        if isinstance(group, str):
            if group != NONFAULTY:
                raise ModelCheckingError(f"unsupported group specification: {group!r}")
            # i must know φ wherever i is nonfaulty: (i ∈ N) ⇒ K_i φ, for all i.
            result = self._full_words.copy()
            for agent in range(self.system.n):
                knows = self._knows_words(agent, inner)
                result &= knows | (self._full_words & ~self.system.nonfaulty_words(agent))
            return result
        # Any other group kind is an explicit, point-independent collection of
        # agents; an indexical kind would need its own membership-mask case
        # like NONFAULTY above.
        if isinstance(group, (frozenset, set, tuple, list)):
            result = self._full_words.copy()
            for agent in group:
                result &= self._knows_words(agent, inner)
            return result
        raise ModelCheckingError(f"unsupported group specification: {group!r}")

    def _common_knowledge_words(self, group: Group,
                                inner: "npt.NDArray[Any]") -> "npt.NDArray[Any]":
        """Greatest fixpoint of ``X = E_S(φ ∧ X)`` (standard characterization of ``C_S φ``)."""
        current = self._full_words.copy()
        while True:
            updated = current & self._everyone_knows_words(group, inner & current)
            if np.array_equal(updated, current):
                return updated
            current = updated


def satisfying_points(system: InterpretedSystem, formula: Formula) -> FrozenSet[Point]:
    """One-shot evaluation of ``formula`` on ``system`` (no checker reuse)."""
    return ModelChecker(system).satisfying_points(formula)


def holds(system: InterpretedSystem, formula: Formula, point: Point) -> bool:
    """One-shot check of ``formula`` at a single point."""
    return ModelChecker(system).holds(formula, point)


def valid(system: InterpretedSystem, formula: Formula) -> bool:
    """One-shot validity check of ``formula`` on ``system``."""
    return ModelChecker(system).valid(formula)
