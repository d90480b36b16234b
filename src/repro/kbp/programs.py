"""Knowledge-based programs (Section 4) and the paper's programs ``P0`` and ``P1``.

A knowledge-based program for agent ``i`` is an ``if/elif/.../else`` cascade
whose guards are Boolean combinations of formulas of the form ``K_i ψ`` (plus
tests on ``i``'s own local state, which are trivially knowledge of the agent).
Its meaning is relative to an interpreted system: the action prescribed at a
local state is the first clause whose guard holds at (any point with) that
local state.

``P0`` (Section 6)::

    if decided_i != ⊥                                 then noop
    else if init_i = 0 ∨ K_i(⋁_j jdecided_j = 0)      then decide_i(0)
    else if K_i(⋀_j ¬(deciding_j = 0))                then decide_i(1)
    else noop

``P1`` (Section 7) adds the two common-knowledge clauses before the ``P0``
clauses::

    else if K_i(C_N(t-faulty ∧ no-decided_N(1) ∧ ∃0)) then decide_i(0)
    else if K_i(C_N(t-faulty ∧ no-decided_N(0) ∧ ∃1)) then decide_i(1)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.types import Action, DECIDE_0, DECIDE_1, NOOP
from ..logic.formula import (
    And,
    Formula,
    InitEquals,
    Knows,
    Or,
    common_knowledge_t_faulty,
    decided,
    exists_value,
    no_nonfaulty_decided,
    nobody_deciding,
    someone_just_decided,
)
from ..logic.semantics import ModelChecker
from ..systems.points import Point


@dataclass(frozen=True)
class GuardedClause:
    """One ``if guard then action`` clause of a local knowledge-based program."""

    guard: Formula
    action: Action

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"if {self.guard!r} then {self.action!r}"


@dataclass(frozen=True)
class LocalProgram:
    """The local knowledge-based program of one agent: ordered clauses plus a default."""

    agent: int
    clauses: Tuple[GuardedClause, ...]
    default: Action = NOOP


class KnowledgeBasedProgram:
    """A joint knowledge-based program ``P = (P_1, ..., P_n)``."""

    def __init__(self, name: str, locals_: Sequence[LocalProgram]) -> None:
        self.name = name
        self._locals: Dict[int, LocalProgram] = {program.agent: program for program in locals_}

    @property
    def n(self) -> int:
        return len(self._locals)

    def local(self, agent: int) -> LocalProgram:
        """The local program of ``agent``."""
        return self._locals[agent]

    def prescribed_action(self, checker: ModelChecker, agent: int, point: Point) -> Action:
        """The action ``P^I_i`` prescribes at the given point of ``checker``'s system.

        Because every guard is a Boolean combination of ``K_i`` formulas and
        ``i``-local tests, the result depends only on ``i``'s local state at the
        point, so evaluating at any representative point is sound.
        """
        program = self.local(agent)
        for clause in program.clauses:
            if checker.holds(clause.guard, point):
                return clause.action
        return program.default

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KnowledgeBasedProgram({self.name!r}, n={self.n})"


# --------------------------------------------------------------------------- the paper's programs


def make_p0(n: int) -> KnowledgeBasedProgram:
    """The knowledge-based program ``P0`` for ``n`` agents (Section 6)."""
    locals_: List[LocalProgram] = []
    for agent in range(n):
        clauses = (
            GuardedClause(decided(agent), NOOP),
            GuardedClause(
                Or((InitEquals(agent, 0), Knows(agent, someone_just_decided(n, 0)))),
                DECIDE_0,
            ),
            GuardedClause(Knows(agent, nobody_deciding(n, 0)), DECIDE_1),
        )
        locals_.append(LocalProgram(agent=agent, clauses=clauses, default=NOOP))
    return KnowledgeBasedProgram("P0", locals_)


def make_p1(n: int, t: int) -> KnowledgeBasedProgram:
    """The knowledge-based program ``P1`` for ``n`` agents and failure bound ``t`` (Section 7)."""
    ck_decide_0 = common_knowledge_t_faulty(
        n, t, And((no_nonfaulty_decided(n, 1), exists_value(n, 0))))
    ck_decide_1 = common_knowledge_t_faulty(
        n, t, And((no_nonfaulty_decided(n, 0), exists_value(n, 1))))
    locals_: List[LocalProgram] = []
    for agent in range(n):
        clauses = (
            GuardedClause(decided(agent), NOOP),
            GuardedClause(Knows(agent, ck_decide_0), DECIDE_0),
            GuardedClause(Knows(agent, ck_decide_1), DECIDE_1),
            GuardedClause(
                Or((InitEquals(agent, 0), Knows(agent, someone_just_decided(n, 0)))),
                DECIDE_0,
            ),
            GuardedClause(Knows(agent, nobody_deciding(n, 0)), DECIDE_1),
        )
        locals_.append(LocalProgram(agent=agent, clauses=clauses, default=NOOP))
    return KnowledgeBasedProgram("P1", locals_)
