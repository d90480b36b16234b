"""Property-based tests (hypothesis) for the core invariants.

The EBA specification must hold for *every* admissible failure pattern and
preference vector, so it is a natural target for property-based testing: we
draw random sending-omission adversaries and preference vectors and check the
specification, the termination bound, 0-chain structure, and cross-protocol
dominance invariants on the resulting runs.

The word-array kernel behind the vectorized model checker gets the same
treatment: arbitrary-width int-mask ↔ ``uint64``-word-array round-trips
(non-multiple-of-64 widths included — the tail bits of the last word are the
classic vectorization bug) and the ordering/limit contract of the vectorized
``counterexamples()`` scan.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import compare_traces, zero_chains
from repro.exchange import CommGraph
from repro.failures import FailurePattern, SendingOmissionModel
from repro.logic import ModelChecker, words
from repro.logic.reference import ReferenceModelChecker
from repro.protocols import BasicProtocol, MinProtocol, OptimalFipProtocol
from repro.simulation import simulate
from repro.spec import check_eba
from repro.systems import build_system

# ---------------------------------------------------------------------------- strategies

#: Shared hypothesis settings: the FIP runs are comparatively slow, so keep the
#: example counts modest and silence the too-slow health check.
PROPERTY_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def eba_scenarios(draw, min_n=3, max_n=6, max_t=2):
    """A random (n, t, preferences, SO(t) failure pattern) quadruple."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    t = draw(st.integers(min_value=0, max_value=min(max_t, n - 2)))
    preferences = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    faulty = draw(st.sets(st.integers(0, n - 1), max_size=t))
    horizon = t + 2
    omissions = set()
    for sender in faulty:
        for round_index in range(horizon):
            for receiver in range(n):
                if receiver == sender:
                    continue
                if draw(st.booleans()):
                    omissions.add((round_index, sender, receiver))
    pattern = FailurePattern(n=n, faulty=frozenset(faulty), omissions=frozenset(omissions))
    return n, t, preferences, pattern


# ---------------------------------------------------------------------------- EBA invariants


class TestSpecificationProperties:
    @settings(**PROPERTY_SETTINGS)
    @given(scenario=eba_scenarios())
    def test_pmin_satisfies_eba_with_deadline(self, scenario):
        n, t, preferences, pattern = scenario
        trace = simulate(MinProtocol(t), n, preferences, pattern)
        report = check_eba(trace, deadline=t + 2, validity_for_faulty=True,
                           termination_for_faulty=True)
        assert report.ok, report.violations()

    @settings(**PROPERTY_SETTINGS)
    @given(scenario=eba_scenarios())
    def test_pbasic_satisfies_eba_with_deadline(self, scenario):
        n, t, preferences, pattern = scenario
        trace = simulate(BasicProtocol(t), n, preferences, pattern)
        report = check_eba(trace, deadline=t + 2, validity_for_faulty=True,
                           termination_for_faulty=True)
        assert report.ok, report.violations()

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(scenario=eba_scenarios(max_n=5, max_t=2))
    def test_popt_satisfies_eba_with_deadline(self, scenario):
        n, t, preferences, pattern = scenario
        trace = simulate(OptimalFipProtocol(t), n, preferences, pattern)
        report = check_eba(trace, deadline=t + 2, validity_for_faulty=True,
                           termination_for_faulty=True)
        assert report.ok, report.violations()

    @settings(**PROPERTY_SETTINGS)
    @given(scenario=eba_scenarios())
    def test_unanimous_preferences_force_that_decision(self, scenario):
        n, t, preferences, pattern = scenario
        for value in (0, 1):
            unanimous = tuple(value for _ in range(n))
            trace = simulate(MinProtocol(t), n, unanimous, pattern)
            assert all(trace.decision_value(agent) == value for agent in range(n))


class TestChainProperties:
    @settings(**PROPERTY_SETTINGS)
    @given(scenario=eba_scenarios())
    def test_every_zero_decision_is_backed_by_a_chain(self, scenario):
        n, t, preferences, pattern = scenario
        trace = simulate(MinProtocol(t), n, preferences, pattern)
        chains = zero_chains(trace)
        chain_endpoints = {(chain.last_agent, chain.length) for chain in chains}
        for agent in range(n):
            round_number = trace.decision_round(agent)
            if round_number is not None and trace.decision_value(agent) == 0:
                assert (agent, round_number - 1) in chain_endpoints

    @settings(**PROPERTY_SETTINGS)
    @given(scenario=eba_scenarios())
    def test_chains_start_with_an_initial_zero_and_are_distinct(self, scenario):
        n, t, preferences, pattern = scenario
        trace = simulate(MinProtocol(t), n, preferences, pattern)
        for chain in zero_chains(trace):
            assert preferences[chain.agents[0]] == 0
            assert len(set(chain.agents)) == len(chain.agents)


class TestDominanceProperties:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(scenario=eba_scenarios(max_n=5, max_t=1))
    def test_popt_never_decides_later_than_pmin(self, scenario):
        n, t, preferences, pattern = scenario
        fast = simulate(OptimalFipProtocol(t), n, preferences, pattern)
        slow = simulate(MinProtocol(t), n, preferences, pattern)
        result = compare_traces([fast], [slow])
        assert result.first_dominates, result.summary()

    @settings(**PROPERTY_SETTINGS)
    @given(scenario=eba_scenarios())
    def test_pbasic_never_decides_later_than_pmin(self, scenario):
        n, t, preferences, pattern = scenario
        fast = simulate(BasicProtocol(t), n, preferences, pattern)
        slow = simulate(MinProtocol(t), n, preferences, pattern)
        result = compare_traces([fast], [slow])
        assert result.first_dominates, result.summary()


class TestCommGraphProperties:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(scenario=eba_scenarios(max_n=5, max_t=2))
    def test_graph_merge_is_monotone_and_truthful(self, scenario):
        """An agent's graph only grows over time and never records false deliveries."""
        n, t, preferences, pattern = scenario
        trace = simulate(OptimalFipProtocol(t), n, preferences, pattern, horizon=t + 2)
        for agent in range(n):
            previous_labels: frozenset = frozenset()
            previous_prefs: dict = {}
            for time in range(trace.horizon + 1):
                graph: CommGraph = trace.state_of(agent, time).graph
                labels = graph.labelled_edges()
                assert previous_labels <= labels
                prefs = graph.known_preferences()
                assert set(previous_prefs) <= set(prefs)
                for other, value in prefs.items():
                    assert preferences[other] == value
                for (round_index, sender, receiver, delivered) in labels:
                    actually_delivered = (
                        trace.rounds[round_index].delivered[receiver][sender] is not None)
                    assert delivered == actually_delivered
                previous_labels, previous_prefs = labels, prefs

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(scenario=eba_scenarios(max_n=5, max_t=2))
    def test_cone_restriction_reconstructs_true_states(self, scenario):
        """Full information really is full: whenever ``(j, τ)`` hears-into an
        observer's point, the observer's cone restriction of its own graph is
        *exactly* the graph agent ``j`` actually held at time ``τ`` in the run.
        This is the property the ``P_opt`` decision oracle relies on.
        """
        n, t, preferences, pattern = scenario
        trace = simulate(OptimalFipProtocol(t), n, preferences, pattern, horizon=t + 2)
        final_time = trace.horizon
        for observer in range(n):
            observer_graph = trace.state_of(observer, final_time).graph
            frontier = observer_graph.heard_frontier(observer, final_time)
            for agent in range(n):
                for time in range(0, frontier[agent] + 1):
                    reconstructed = observer_graph.restrict(agent, time)
                    actual = trace.state_of(agent, time).graph
                    assert reconstructed == actual

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(scenario=eba_scenarios(max_n=5, max_t=2))
    def test_known_faulty_agents_are_really_faulty(self, scenario):
        n, t, preferences, pattern = scenario
        trace = simulate(OptimalFipProtocol(t), n, preferences, pattern, horizon=t + 2)
        for agent in range(n):
            final = trace.state_of(agent, trace.horizon).graph
            known = final.known_faulty(agent, trace.horizon)
            assert known <= pattern.faulty


# ---------------------------------------------------------------------------- word-array kernel


@st.composite
def masked_widths(draw, max_points=300):
    """A random ``(num_points, mask)`` pair, biased toward awkward widths.

    Widths straddle the 64-bit word boundaries (63, 64, 65, 127, 128, …) as
    well as arbitrary sizes, so the last word's tail bits are exercised in
    every alignment.
    """
    boundary = draw(st.booleans())
    if boundary:
        base = draw(st.sampled_from([1, 63, 64, 65, 127, 128, 129, 191, 192, 255, 256]))
        num_points = min(base, max_points)
    else:
        num_points = draw(st.integers(min_value=1, max_value=max_points))
    mask = draw(st.integers(min_value=0, max_value=(1 << num_points) - 1))
    return num_points, mask


class TestWordArrayRoundTrip:
    """int mask ↔ uint64 word array conversions are lossless at every width."""

    @settings(max_examples=120, deadline=None)
    @given(pair=masked_widths())
    def test_mask_words_round_trip_is_lossless(self, pair):
        num_points, mask = pair
        array = words.mask_to_words(mask, num_points)
        assert len(array) == words.word_count(num_points)
        assert words.words_to_mask(array) == mask
        # Canonical form: no garbage in the tail bits of the last word, so
        # masking with the full set is the identity.
        assert words.words_to_mask(array & words.full_words(num_points)) == mask

    @settings(max_examples=120, deadline=None)
    @given(pair=masked_widths())
    def test_bit_vector_round_trip_is_lossless(self, pair):
        num_points, mask = pair
        array = words.mask_to_words(mask, num_points)
        bits = words.unpack_words(array, num_points)
        assert len(bits) == num_points
        assert all(int(bits[i]) == ((mask >> i) & 1) for i in range(num_points))
        assert words.words_to_mask(words.pack_bits(bits)) == mask

    @settings(max_examples=120, deadline=None)
    @given(pair=masked_widths())
    def test_index_recovery_matches_int_bit_iteration(self, pair):
        num_points, mask = pair
        array = words.mask_to_words(mask, num_points)
        expected = [i for i in range(num_points) if (mask >> i) & 1]
        assert list(words.indices_of_words(array, num_points)) == expected

    @settings(max_examples=120, deadline=None)
    @given(pair=masked_widths())
    def test_complement_and_shifts_agree_with_int_semantics(self, pair):
        num_points, mask = pair
        array = words.mask_to_words(mask, num_points)
        full_array = words.full_words(num_points)
        full_mask = (1 << num_points) - 1
        assert words.words_to_mask(full_array & ~array) == full_mask & ~mask
        assert words.words_to_mask(words.shift_down_words(array)) == mask >> 1
        assert words.words_to_mask(words.shift_up_words(array, full_array)) \
            == (mask << 1) & full_mask


@pytest.fixture(scope="module")
def counterexample_system():
    """One small system with both checkers, for the scan properties."""
    model = SendingOmissionModel(n=3, t=1)
    patterns = list(model.enumerate(2))[:8]
    system = build_system(MinProtocol(1), 3, 2, patterns)
    return system, ReferenceModelChecker(system), ModelChecker(system)


class TestCounterexampleScanProperties:
    """Ordering/limit invariants of the vectorized ``counterexamples()``."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           limit=st.integers(min_value=0, max_value=80))
    def test_ordering_limit_and_backend_agreement(self, counterexample_system,
                                                  seed, limit):
        from test_logic_bitset_reference import random_formula

        system, reference, word_checker = counterexample_system
        formula = random_formula(random.Random(seed), system.n, system.horizon,
                                 depth=3)
        result = word_checker.counterexamples(formula, limit=limit)
        # Limit: never more than asked for, and exactly the failing-point
        # count when that is smaller.
        failing_total = system.num_points - int(words.unpack_words(
            word_checker.satisfying_words(formula), system.num_points).sum())
        assert len(result) == min(limit, failing_total)
        # Ordering: strictly increasing dense indices — sorted, no duplicates.
        indices = [system.point_index(point) for point in result]
        assert indices == sorted(set(indices))
        # Every reported point really fails.
        assert all(not word_checker.holds(formula, point) for point in result)
        # The vectorized recovery agrees with the reference extraction exactly.
        assert result == reference.counterexamples(formula, limit=limit)


class TestFailurePatternProperties:
    @settings(max_examples=60, deadline=None)
    @given(scenario=eba_scenarios())
    def test_swap_roles_is_involutive(self, scenario):
        n, t, preferences, pattern = scenario
        if pattern.num_faulty == 0:
            return
        faulty_agent = min(pattern.faulty)
        other = min(set(range(n)) - pattern.faulty)
        swapped_twice = pattern.swap_roles(faulty_agent, other).swap_roles(faulty_agent, other)
        assert swapped_twice == pattern
