"""Differential tests: the reference checker vs the word-array checker.

Every formula constructor must evaluate identically under both
implementations:

* :class:`~repro.logic.reference.ReferenceModelChecker` — the original
  ``frozenset[Point]`` evaluator, the ground truth;
* :class:`~repro.logic.semantics.ModelChecker` — the vectorized numpy
  ``uint64`` word-array kernel.

Formulas are generated by a seeded recursive sampler that covers all 16
constructors — atoms, connectives, epistemic operators (individual, everyone,
common; indexical and concrete groups, including the *empty* group), and
temporal operators — over randomised small systems (n ≤ 3, horizon ≤ 3).
Dedicated cases pin the edges where a vectorized kernel typically diverges:
empty satisfying classes, all-points-fail formulas, and both ``K_i``
strategies of the word-array checker (dense class-matrix and bincount reduction,
forced via :data:`repro.logic.words.DENSE_CLASS_LIMIT`).
"""

import random

import numpy as np
import pytest

from repro.failures import SendingOmissionModel
from repro.logic import (
    Always,
    AlwaysFuture,
    And,
    CommonKnowledge,
    DecidedEquals,
    Eventually,
    EveryoneKnows,
    InitEquals,
    IsNonfaulty,
    Knows,
    ModelChecker,
    NONFAULTY,
    Next,
    Not,
    Or,
    Previous,
    TRUE,
    TimeEquals,
    words,
)
from repro.logic.reference import ReferenceModelChecker
from repro.protocols import BasicProtocol, MinProtocol
from repro.systems import build_system


def random_formula(rng: random.Random, n: int, horizon: int, depth: int):
    """Sample a random formula of the full language, bounded by ``depth``."""
    atoms = [
        lambda: TRUE,
        lambda: InitEquals(rng.randrange(n), rng.choice([0, 1])),
        lambda: DecidedEquals(rng.randrange(n), rng.choice([0, 1, None])),
        lambda: TimeEquals(rng.randrange(horizon + 1)),
        lambda: IsNonfaulty(rng.randrange(n)),
    ]
    if depth <= 0:
        return rng.choice(atoms)()

    def sub():
        return random_formula(rng, n, horizon, depth - 1)

    def group():
        roll = rng.random()
        if roll < 0.4:
            return NONFAULTY
        if roll < 0.5:
            return frozenset()  # the empty concrete group: E_∅ / C_∅
        size = rng.randrange(1, n + 1)
        return frozenset(rng.sample(range(n), size))

    compounds = [
        lambda: Not(sub()),
        lambda: And(tuple(sub() for _ in range(rng.randrange(3)))),
        lambda: Or(tuple(sub() for _ in range(rng.randrange(3)))),
        lambda: Knows(rng.randrange(n), sub()),
        lambda: EveryoneKnows(group(), sub()),
        lambda: CommonKnowledge(group(), sub()),
        lambda: Next(sub()),
        lambda: Previous(sub()),
        lambda: Always(sub()),
        lambda: AlwaysFuture(sub()),
        lambda: Eventually(sub()),
    ]
    return rng.choice(atoms + compounds)()


def small_systems():
    """A spread of small systems: sizes, horizons, exchanges, pattern subsets."""
    systems = []
    for n, t, horizon, protocol_factory in [
        (2, 0, 1, MinProtocol),
        (3, 1, 2, MinProtocol),
        (3, 1, 3, BasicProtocol),
    ]:
        model = SendingOmissionModel(n=n, t=t)
        patterns = list(model.enumerate(horizon))
        # Cap the run count so the naive reference evaluator stays quick.
        systems.append(build_system(protocol_factory(t), n, horizon, patterns[:6]))
    return systems


@pytest.fixture(scope="module", params=[0, 1, 2], ids=lambda s: f"system{s}")
def system_pair(request):
    """One small system with both checker implementations attached."""
    system = small_systems()[request.param]
    return system, ReferenceModelChecker(system), ModelChecker(system)


def assert_agreement(system, reference, word_checker, formula, limit=4):
    """Both checkers agree on the satisfying set and every derived API."""
    expected = reference.satisfying_points(formula)
    via_words = word_checker.satisfying_points(formula)
    assert type(via_words) is frozenset, formula
    assert via_words == expected, formula
    bits = np.zeros(system.num_points, dtype=bool)
    bits[[system.point_index(point) for point in expected]] = True
    assert np.array_equal(word_checker.satisfying_words(formula),
                          words.pack_bits(bits)), formula
    assert word_checker.valid(formula) == reference.valid(formula), formula
    expected_cx = reference.counterexamples(formula, limit=limit)
    assert word_checker.counterexamples(formula, limit=limit) == expected_cx, formula


@pytest.mark.parametrize("seed", range(8))
def test_random_formulas_agree_across_backends(system_pair, seed):
    system, reference, word_checker = system_pair
    rng = random.Random(seed)
    for _ in range(25):
        formula = random_formula(rng, system.n, system.horizon, depth=3)
        assert_agreement(system, reference, word_checker, formula)


def test_every_constructor_appears_in_the_sample():
    """Guard the sampler itself: all 16 constructors must actually be exercised."""
    rng = random.Random(12345)
    seen = set()
    for _ in range(400):
        stack = [random_formula(rng, 3, 2, depth=3)]
        while stack:
            formula = stack.pop()
            seen.add(type(formula).__name__)
            for attribute in ("operand",):
                if hasattr(formula, attribute):
                    stack.append(getattr(formula, attribute))
            if hasattr(formula, "operands"):
                stack.extend(formula.operands)
    assert {
        "TrueFormula", "InitEquals", "DecidedEquals", "TimeEquals", "IsNonfaulty",
        "Not", "And", "Or", "Knows", "EveryoneKnows", "CommonKnowledge",
        "Next", "Previous", "Always", "AlwaysFuture", "Eventually",
    } <= seen


def test_holds_agrees_pointwise(system_pair):
    system, reference, word_checker = system_pair
    rng = random.Random(99)
    for _ in range(10):
        formula = random_formula(rng, system.n, system.horizon, depth=2)
        for point in system.points[:: max(1, len(system.points) // 50)]:
            assert word_checker.holds(formula, point) == reference.holds(formula, point)


class TestEdgeCases:
    """The classic vectorization traps, pinned against the reference."""

    FALSE = Not(TRUE)

    def edge_formulas(self, n):
        yield self.FALSE  # all points fail
        yield And((TRUE, self.FALSE))
        for agent in range(n):
            yield Knows(agent, self.FALSE)  # no class is contained: empty result
            yield Knows(agent, TRUE)  # every class is contained: full result
        yield EveryoneKnows(frozenset(), self.FALSE)  # empty group: vacuously full
        yield CommonKnowledge(frozenset(), self.FALSE)
        yield EveryoneKnows(NONFAULTY, self.FALSE)
        yield CommonKnowledge(NONFAULTY, self.FALSE)
        yield Next(self.FALSE)
        yield Eventually(self.FALSE)
        yield Always(TRUE)

    def test_edge_formulas_agree(self, system_pair):
        system, reference, word_checker = system_pair
        for formula in self.edge_formulas(system.n):
            assert_agreement(system, reference, word_checker, formula, limit=10_000)

    def test_all_points_fail_counterexamples_are_every_point(self, system_pair):
        system, reference, word_checker = system_pair
        everything = list(system.points)
        for checker in (reference, word_checker):
            assert checker.counterexamples(self.FALSE, limit=len(everything) + 7) \
                == everything


class TestCounterexampleOrderingRegression:
    """Pin the ``counterexamples()`` ordering contract (guaranteed since PR 2).

    Counterexamples are listed in the system's deterministic point order —
    run-major, time-minor, i.e. ascending dense index ``run * stride + time``
    — truncated to ``limit``.  The expected lists here are derived from that
    definition alone (not from any checker), so a vectorized point recovery
    that reorders, duplicates, or drops points fails against a fixed
    expectation rather than against another implementation that might share
    the bug.
    """

    def checkers(self, system):
        return ReferenceModelChecker(system), ModelChecker(system)

    def test_time_equals_counterexamples_in_dense_order(self, system_pair):
        system = system_pair[0]
        stride = system.horizon + 1
        # TimeEquals(1) fails exactly at the points whose time is not 1.
        expected = [point for point in system.points if point.time != 1]
        assert expected == [  # the dense-order definition, spelled out
            type(point)(run, time)
            for point in [system.points[0]]
            for run in range(len(system.runs))
            for time in range(stride)
            if time != 1
        ]
        for checker in self.checkers(system):
            assert checker.counterexamples(TimeEquals(1), limit=6) == expected[:6]
            assert checker.counterexamples(TimeEquals(1), limit=10 ** 9) == expected

    def test_limit_zero_and_satisfied_formulas_yield_nothing(self, system_pair):
        system = system_pair[0]
        for checker in self.checkers(system):
            assert checker.counterexamples(Not(TRUE), limit=0) == []
            assert checker.counterexamples(TRUE, limit=10) == []

    def test_truncation_is_a_prefix_of_the_full_list(self, system_pair):
        system = system_pair[0]
        formula = Not(DecidedEquals(0, None))
        for checker in self.checkers(system):
            full = checker.counterexamples(formula, limit=system.num_points)
            for limit in (1, 2, 5):
                assert checker.counterexamples(formula, limit=limit) == full[:limit]


class TestBothKnowledgeStrategies:
    """The checker's dense-matrix and bincount ``K_i`` paths must agree.

    ``DENSE_CLASS_LIMIT`` selects the strategy per agent at evaluation time;
    forcing it to 0 routes every ``K_i`` through the class-id / bincount
    reduction, so both code paths are pinned against the reference.
    """

    @pytest.mark.parametrize("limit", [0, 10_000], ids=["bincount", "dense"])
    def test_knowledge_formulas_agree(self, system_pair, monkeypatch, limit):
        system, reference, _ = system_pair
        monkeypatch.setattr(words, "DENSE_CLASS_LIMIT", limit)
        word_checker = ModelChecker(system)
        rng = random.Random(2024)
        for _ in range(40):
            operand = random_formula(rng, system.n, system.horizon, depth=2)
            agent = rng.randrange(system.n)
            for formula in (Knows(agent, operand),
                            EveryoneKnows(NONFAULTY, operand),
                            CommonKnowledge(frozenset(range(system.n)), operand)):
                assert_agreement(system, reference, word_checker, formula)

