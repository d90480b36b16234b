"""Differential tests: the batched round-major engine vs per-run ``simulate()``.

The batched engine (:mod:`repro.simulation.batch`) promises traces that are
**byte-identical** (per-trace pickle) to :func:`repro.simulation.engine.simulate`'s
for every protocol, failure model, and scenario — and systems whose interned
partitions are identical to those of the per-run oracle (one ``simulate()``
call per run, wrapped in an :class:`~repro.systems.interpreted.InterpretedSystem`
that interns lazily).  These tests enforce that promise across the SO / RO / GO
models and all three paper protocols, plus a randomized scenario sweep, and pin
the supporting behaviours: the local-update memo (one ``update`` call per
distinct key, errors on the first transition in run order), duplicate-pattern
rejection, and in-process chunked construction under a cancel scope polled
every round.  :func:`~repro.simulation.batch.simulate_tasks`, the body
of every executor, is checked against the per-run engine task by task, until
every agent has decided and for fixed horizons.
"""

import pickle
import random

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, ModelCheckingError, ProtocolError
from repro.core.types import NOOP
from repro.exchange.minimal import MinimalExchange
from repro.failures.models import (
    GeneralOmissionModel,
    ReceiveOmissionModel,
    SendingOmissionModel,
    make_model,
)
from repro.failures.pattern import FailurePattern
from repro.kbp import check_implements, make_p0
from repro.logic.words import class_id_dtype
from repro.obs import trace as obs_trace
from repro.protocols import ActionProtocol, BasicProtocol, MinProtocol, OptimalFipProtocol
from repro.simulation.batch import BatchSimulator, simulate_tasks
from repro.simulation.engine import simulate
from repro.systems import (
    InterpretedSystem,
    build_system,
    gamma_basic,
    gamma_fip,
    gamma_min,
)
from repro.workloads import random_model_scenarios
from repro.workloads.preferences import enumerate_preferences

MODELS = ["sending-omission", "receive-omission", "general-omission"]

#: For the differential checks over full *context-horizon* systems, GO(1) at
#: n=3 is a 98 312-run system whose per-run oracle build alone takes ~20 s —
#: the exhaustive GO halves run in the weekly ``-m slow`` tier, like the other
#: exhaustive GO checks.
CONTEXT_MODELS = [
    "sending-omission",
    "receive-omission",
    pytest.param("general-omission", marks=pytest.mark.slow),
]


def _trace_bytes(traces):
    return [pickle.dumps(trace) for trace in traces]


def simulate_batch(protocol, n, scenarios, horizon):
    """A fresh simulator's traces of ``scenarios``."""
    return BatchSimulator(protocol, n).simulate_scenarios(scenarios, horizon)


def _per_run_system(protocol, context):
    """The construction oracle: one ``simulate()`` call per (pattern, preferences) pair."""
    prefs = [tuple(p) for p in enumerate_preferences(context.n)]
    runs = [simulate(protocol, context.n, p, pattern=pattern, horizon=context.horizon)
            for pattern in context.patterns() for p in prefs]
    return InterpretedSystem(n=context.n, horizon=context.horizon, runs=runs,
                             protocol_name=protocol.name)


@pytest.fixture(scope="module")
def per_run_system():
    """:func:`_per_run_system`, cached by its inputs for the module.

    The general-omission cases of ``TestEngineEquivalenceInBuildSystem`` both
    ask for the 98 312-run ``P_min`` system (~15 s and ~0.5 GB each); only the
    latest system asked for is held, so one is alive at a time.
    """
    latest = {}

    def build(protocol, context):
        key = (type(protocol), protocol.t, context)
        if key not in latest:
            latest.clear()
            latest[key] = _per_run_system(protocol, context)
        return latest[key]

    return build


class TestTraceByteIdentity:
    @pytest.mark.parametrize("model_name", MODELS)
    def test_exhaustive_n3_systems_are_byte_identical(self, model_name):
        """Every run of the full n=3 system, across the paper's two limited protocols."""
        model = make_model(model_name, n=3, t=1)
        patterns = list(model.enumerate(2))
        prefs = [tuple(p) for p in enumerate_preferences(3)]
        for protocol in (MinProtocol(1), BasicProtocol(1)):
            per_run = [simulate(protocol, 3, p, pattern=pattern, horizon=2)
                       for pattern in patterns for p in prefs]
            batched = BatchSimulator(protocol, 3).simulate_patterns(patterns, prefs, 2)
            assert _trace_bytes(batched) == _trace_bytes(per_run)

    def test_full_information_protocol_is_byte_identical(self):
        """E_fip's graph-valued messages and states survive batching unchanged."""
        model = SendingOmissionModel(n=3, t=1)
        patterns = list(model.enumerate(2))
        prefs = [tuple(p) for p in enumerate_preferences(3)]
        protocol = OptimalFipProtocol(1)
        per_run = [simulate(protocol, 3, p, pattern=pattern, horizon=3)
                   for pattern in patterns for p in prefs]
        batched = BatchSimulator(protocol, 3).simulate_patterns(patterns, prefs, 3)
        assert _trace_bytes(batched) == _trace_bytes(per_run)

    @pytest.mark.parametrize("protocol_factory", [MinProtocol, BasicProtocol, OptimalFipProtocol])
    def test_randomized_scenario_sweep(self, protocol_factory):
        """Random patterns from every edge-omission model, random preferences."""
        rng = random.Random(71)
        n, t, horizon = 4, 2, 4
        protocol = protocol_factory(t)
        scenarios = []
        for model in (SendingOmissionModel(n=n, t=t), ReceiveOmissionModel(n=n, t=t),
                      GeneralOmissionModel(n=n, t=t)):
            for _ in range(25):
                pattern = model.sample(rng, horizon, omission_probability=0.4)
                preferences = tuple(rng.randint(0, 1) for _ in range(n))
                scenarios.append((preferences, pattern))
        per_run = [simulate(protocol, n, prefs, pattern=pattern, horizon=horizon)
                   for prefs, pattern in scenarios]
        batched = simulate_batch(protocol, n, scenarios, horizon)
        assert _trace_bytes(batched) == _trace_bytes(per_run)

    def test_failure_free_default_and_zero_horizon(self):
        trace = simulate_batch(MinProtocol(1), 3, [((1, 1, 1), None)], 0)[0]
        assert trace.rounds == []
        assert trace.pattern == FailurePattern.failure_free(3)
        per_run = simulate(MinProtocol(1), 3, (1, 1, 1), horizon=0)
        assert pickle.dumps(trace) == pickle.dumps(per_run)


class TestEngineEquivalenceInBuildSystem:
    @pytest.mark.parametrize("model_name", CONTEXT_MODELS)
    def test_build_system_engines_agree(self, model_name, per_run_system):
        context = gamma_min(3, 1, failure_model=model_name)
        batched = context.build_system(MinProtocol(1))
        per_run = per_run_system(MinProtocol(1), context)
        assert _trace_bytes(batched.runs) == _trace_bytes(per_run.runs)
        for agent in range(3):
            fast = batched.partition(agent)
            slow = per_run.partition(agent)
            assert fast == slow
            assert np.array_equal(fast.class_words(), slow.class_words())

    @pytest.mark.parametrize("model_name", CONTEXT_MODELS)
    def test_theorem_reports_identical_across_engines(self, model_name, per_run_system):
        """Theorem 6.5 / 6.6 verdicts cannot depend on the construction engine."""
        for claim_protocol, gamma in ((MinProtocol(1), gamma_min),
                                      (BasicProtocol(1), gamma_basic)):
            context = gamma(3, 1, failure_model=model_name)
            batched = check_implements(
                claim_protocol, make_p0(3), context,
                system=context.build_system(claim_protocol))
            per_run = check_implements(
                claim_protocol, make_p0(3), context,
                system=per_run_system(claim_protocol, context))
            assert repr(batched) == repr(per_run)
            assert batched.checked_states == per_run.checked_states
            assert [repr(m) for m in batched.mismatches] == [repr(m) for m in per_run.mismatches]

    @pytest.mark.parametrize("build", [
        lambda: build_system(MinProtocol(1), 3, 3, [], engine="per-run"),
        lambda: build_system(MinProtocol(1), 3, 3, SendingOmissionModel(n=3, t=1).enumerate(3),
                             engine="per-run"),
        lambda: gamma_min(3, 1).build_system(MinProtocol(1), engine="per-run"),
    ], ids=["build_system", "build_system_for_model", "EBAContext.build_system"])
    def test_there_is_no_engine_selector(self, build):
        with pytest.raises(TypeError):
            build()


def _assert_same_partition(batched, lazy):
    """Field-by-field equality of two partitions, class-id dtype included."""
    assert batched.class_ids.dtype == lazy.class_ids.dtype
    assert np.array_equal(batched.class_ids, lazy.class_ids)
    assert batched.class_states == lazy.class_states
    assert batched.class_first_indices == lazy.class_first_indices
    assert batched == lazy


class TestBatchedPartitions:
    """``BatchSimulator.partitions`` against the lazy ``InterpretedSystem.partition``.

    Both see the same runs, so this isolates the numpy gather-and-relabel from
    the per-point hashing it replaces.  GO runs at horizon 2 to keep its
    98 312-run full-horizon system out of tier-1.
    """

    @pytest.mark.parametrize("protocol, gamma, model_name, horizon, dtype", [
        (MinProtocol(1), gamma_min, "sending-omission", None, np.uint8),
        (BasicProtocol(1), gamma_basic, "receive-omission", None, np.uint8),
        (MinProtocol(1), gamma_min, "general-omission", 2, np.uint8),
        # More than 256 classes per agent.
        (OptimalFipProtocol(1), gamma_fip, "sending-omission", None, np.uint16),
    ], ids=["SO-min", "RO-basic", "GO-min", "SO-fip"])
    def test_batched_partitions_equal_lazy_partitions(self, protocol, gamma, model_name,
                                                      horizon, dtype):
        context = gamma(3, 1, horizon=horizon, failure_model=model_name)
        system = context.build_system(protocol)
        lazy = InterpretedSystem(n=3, horizon=system.horizon, runs=system.runs,
                                 protocol_name=protocol.name)
        for agent in range(3):
            batched = system.partition(agent)
            _assert_same_partition(batched, lazy.partition(agent))
            assert batched.class_ids.dtype == dtype
            assert batched.class_ids.dtype == class_id_dtype(len(batched.class_states))
            assert not batched.class_ids.flags.writeable

    def test_wrong_horizon_rejected(self):
        prefs = [(0, 1, 1), (1, 1, 1)]
        patterns = list(SendingOmissionModel(n=3, t=1).enumerate(2))[:3]
        simulator = BatchSimulator(MinProtocol(1), 3)
        simulator.simulate_patterns(patterns, prefs, 2)
        simulator.simulate_scenarios([((0, 1, 1), None)])
        for read in (simulator.partitions, simulator.run_table):
            with pytest.raises(ConfigurationError, match="no run with horizon 1$"):
                read(1)


class _RefusingMinProtocol(MinProtocol):
    """``P_min`` that refuses every time-1 state of a 1-preferring agent that saw a 0-decision."""

    def act(self, state):
        if state.time == 1 and state.init == 1 and state.jd == 0:
            raise ProtocolError(f"refusing {state!r}")
        return super().act(state)


class TestRoundLoop:
    """The vectorised round loop: reuse across calls, mixed inputs, error order."""

    def test_reused_simulator_partitions_every_run_of_its_calls(self):
        """Calls of several horizons and chunk sizes share one simulator; each
        horizon's table and partitions cover every run of its calls, in call order."""
        prefs = [tuple(p) for p in enumerate_preferences(3)]
        patterns = list(SendingOmissionModel(n=3, t=1).enumerate(2))
        protocol = MinProtocol(1)
        simulator = BatchSimulator(protocol, 3)
        runs = {2: [], 3: []}
        for start, stop, horizon in ((0, 40, 2), (40, 41, 2), (0, 30, 3),
                                     (41, 120, 2), (120, len(patterns), 2)):
            traces = simulator.simulate_patterns(patterns[start:stop], prefs, horizon)
            per_run = [simulate(protocol, 3, p, pattern=pattern, horizon=horizon)
                       for pattern in patterns[start:stop] for p in prefs]
            assert _trace_bytes(traces) == _trace_bytes(per_run)
            runs[horizon].extend(per_run)

        def check(horizon):
            assert _trace_bytes(simulator.run_table(horizon).traces()) == _trace_bytes(
                runs[horizon])
            batched = simulator.partitions(horizon)
            lazy = InterpretedSystem(n=3, horizon=horizon, runs=runs[horizon])
            for agent in range(3):
                _assert_same_partition(batched[agent], lazy.partition(agent))

        check(2)
        check(3)
        # A call made after a read adds a piece to what that read merged; the
        # states only it reaches get no class at the other horizon.
        later = simulator.simulate_patterns(patterns[30:45], prefs, 3)
        runs[3].extend(later)
        check(3)
        check(2)

    def test_failure_free_and_real_patterns_mixed(self):
        rng = random.Random(5)
        model = GeneralOmissionModel(n=3, t=1)
        scenarios = []
        for _ in range(30):
            preferences = tuple(rng.randint(0, 1) for _ in range(3))
            pattern = None if rng.random() < 0.4 else model.sample(rng, 3)
            scenarios.append((preferences, pattern))
        per_run = [simulate(BasicProtocol(1), 3, p, pattern=pattern, horizon=3)
                   for p, pattern in scenarios]
        batched = simulate_batch(BasicProtocol(1), 3, scenarios, 3)
        assert _trace_bytes(batched) == _trace_bytes(per_run)

    def test_preference_vectors_as_lists(self):
        patterns = list(ReceiveOmissionModel(n=3, t=1).enumerate(2))[:20]
        scenarios = [([a, b, 1], pattern) for pattern in patterns
                     for a in (0, 1) for b in (0, 1)]
        per_run = [simulate(MinProtocol(1), 3, p, pattern=pattern, horizon=2)
                   for p, pattern in scenarios]
        batched = simulate_batch(MinProtocol(1), 3, scenarios, 2)
        assert _trace_bytes(batched) == _trace_bytes(per_run)
        assert all(type(trace.preferences) is tuple for trace in batched)

    def test_invalid_preferences_rejected_like_simulate(self):
        for bad in ([0, 1], [0, 2, 1], [[0], 1, 1]):
            with pytest.raises(ValueError) as per_run:
                simulate(MinProtocol(1), 3, bad, horizon=1)
            with pytest.raises(ValueError) as batched:
                simulate_batch(MinProtocol(1), 3, [((1, 1, 1), None), (bad, None)], 1)
            assert str(batched.value) == str(per_run.value)

    @pytest.mark.parametrize("bad_pattern_first", [True, False])
    def test_the_first_bad_scenario_raises_after_what_it_slots(self, bad_pattern_first):
        """A bad pattern and a bad preference vector: the earlier scenario's
        error is raised, after exactly what a per-scenario loop slots before
        it (a scenario's preferences before its pattern)."""
        foreign = FailurePattern.failure_free(4)
        bad_pattern = ((0, 0, 1), foreign)
        bad_preferences = ([0, 2, 1], None)
        scenarios = [((1, 1, 1), None), ((0, 1, 1), None)]
        scenarios += ([bad_pattern, bad_preferences] if bad_pattern_first
                      else [bad_preferences, bad_pattern])
        simulator = BatchSimulator(MinProtocol(1), 3)
        error = ConfigurationError if bad_pattern_first else ValueError
        with pytest.raises(error, match="4 agents" if bad_pattern_first else "non-binary"):
            simulator.simulate_scenarios(scenarios, 1)
        slotted = [(1, 1, 1), (0, 1, 1)] + ([(0, 0, 1)] if bad_pattern_first else [])
        assert simulator._preferences == slotted
        assert simulator._patterns == [FailurePattern.failure_free(3)]
        # The next call numbers rows and slots exactly as a fresh per-scenario loop would.
        later = simulator.simulate_scenarios([((1, 0, 0), None), ((0, 0, 1), None)], 1)
        assert _trace_bytes(later) == _trace_bytes(
            [simulate(MinProtocol(1), 3, p, horizon=1) for p in ((1, 0, 0), (0, 0, 1))])
        assert simulator._preferences == slotted + [
            p for p in [(1, 0, 0), (0, 0, 1)] if p not in slotted]

    @pytest.mark.parametrize("bad", ["preferences", "pattern", "both"])
    def test_simulate_patterns_raises_as_its_scenario_list(self, bad):
        """``simulate_patterns`` slots a lazy pattern × preference grid by
        axis; on a bad input it raises what the explicit scenario list raises,
        after slotting the same preferences and patterns."""
        patterns = [FailurePattern.failure_free(3), FailurePattern.silent(3, [0], horizon=1)]
        preferences = [(1, 1, 1), (0, 1, 1)]
        if bad in ("pattern", "both"):
            patterns.insert(1, FailurePattern.failure_free(4))
        if bad in ("preferences", "both"):
            preferences.append([0, 2, 1])
        scenarios = [(prefs, pattern) for pattern in patterns for prefs in preferences]
        outcomes = []
        for call in (lambda simulator: simulator.simulate_patterns(patterns, preferences, 1),
                     lambda simulator: simulator.simulate_scenarios(scenarios, 1)):
            simulator = BatchSimulator(MinProtocol(1), 3)
            with pytest.raises((ConfigurationError, ValueError)) as excinfo:
                call(simulator)
            outcomes.append((type(excinfo.value), str(excinfo.value),
                             simulator._preferences, simulator._patterns,
                             simulator._row_states))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] == [(1, 1, 1), (0, 1, 1)]
        assert outcomes[0][3] == [FailurePattern.failure_free(3)]

    @pytest.mark.parametrize("patterns, preferences", [
        ([], [(1, 1, 1)]),
        ([FailurePattern.failure_free(4)], []),
    ], ids=["no-patterns", "no-preferences"])
    def test_an_empty_grid_slots_nothing(self, patterns, preferences):
        simulator = BatchSimulator(MinProtocol(1), 3)
        assert len(simulator.simulate_patterns(patterns, preferences, 1)) == 0
        assert simulator._preferences == [] and simulator._patterns == []

    def test_simulate_patterns_runs_its_scenario_list(self):
        """Repeated patterns and preference vectors: the grid's runs, slots and
        tables are the explicit scenario list's."""
        model = GeneralOmissionModel(n=3, t=1)
        patterns = list(model.enumerate(2))[:40]
        patterns = patterns + patterns[5:9] + [FailurePattern.silent(3, [2], horizon=4)]
        preferences = [(1, 0, 1), (0, 0, 0), (1, 0, 1), [1, 1, 0]]
        grid = BatchSimulator(BasicProtocol(1), 3)
        listed = BatchSimulator(BasicProtocol(1), 3)
        grid_runs = grid.simulate_patterns(patterns, preferences, 3)
        listed_runs = listed.simulate_scenarios(
            [(prefs, pattern) for pattern in patterns for prefs in preferences], 3)
        assert pickle.dumps(grid_runs) == pickle.dumps(listed_runs)
        assert _trace_bytes(grid_runs) == _trace_bytes(listed_runs)
        assert pickle.dumps(grid.run_table(3)) == pickle.dumps(listed.run_table(3))

    def test_protocol_error_matches_the_per_run_engine(self):
        """The first failing run, in scenario order, names the same state.

        Runs 1 and 2 fail on different agents' states.  Run 2 starts from the
        first-interned initial state, so a loop that took each round's
        transitions in (state, blocked-set) key order would report it instead.
        """
        scenarios = [
            ((1, 0, 1), FailurePattern.silent(3, faulty=[1], horizon=1)),
            ((0, 1, 1), None),
            ((1, 0, 1), FailurePattern.from_blocked(3, [(0, 1, 0)])),
        ]
        protocol = _RefusingMinProtocol(1)
        errors = []
        for preferences, pattern in scenarios:
            try:
                simulate(protocol, 3, preferences, pattern=pattern, horizon=2)
            except ProtocolError as error:
                errors.append(str(error))
        assert len(errors) == 2 and errors[0] != errors[1]
        with pytest.raises(ProtocolError) as excinfo:
            simulate_batch(protocol, 3, scenarios, 2)
        assert str(excinfo.value) == errors[0]


class _RefusingMinimalExchange(MinimalExchange):
    """``E_min`` whose ``update`` refuses agent 2's undecided 1-preferring time-1 state.

    The error names the inbox, so two transitions that reach the refused
    state with different inboxes raise different errors.
    """

    def update(self, state, action, received):
        if (state.agent, state.time, state.init, state.decided, state.jd) == (2, 1, 1, None, None):
            raise ProtocolError(f"refusing {state!r} on {received!r}")
        return super().update(state, action, received)


class _RefusingUpdateProtocol(MinProtocol):
    def make_exchange(self, n):
        return _RefusingMinimalExchange(n)


#: ``(protocol, context)`` of each exchange class's memo case.
MEMO_CASES = {
    "minimal-so-n4": (MinProtocol(1), gamma_min(4, 1)),
    "basic-go-n3": (BasicProtocol(1), gamma_basic(3, 1, failure_model="general-omission")),
    "fip-so-n3": (OptimalFipProtocol(1), gamma_fip(3, 1)),
}


class TestLocalUpdateMemo:
    """``exchange.update`` runs once per distinct (agent state, inbox), in run order."""

    @pytest.mark.parametrize("case", sorted(MEMO_CASES))
    def test_one_update_call_per_distinct_key(self, case, monkeypatch):
        protocol, context = MEMO_CASES[case]
        exchange_class = type(protocol.make_exchange(context.n))
        calls = 0
        update = exchange_class.update

        def spy(self, state, action, received):
            nonlocal calls
            calls += 1
            return update(self, state, action, received)

        monkeypatch.setattr(exchange_class, "update", spy)
        simulator = BatchSimulator(protocol, context.n)
        traces = simulator.simulate_patterns(
            context.patterns(), enumerate_preferences(context.n), context.horizon)
        assert calls == len(simulator._updates)
        assert calls < len(simulator._records) * context.n
        # The memoised states are the ones the per-run engine computes.
        monkeypatch.undo()
        for trace in traces[::97]:
            per_run = simulate(protocol, context.n, trace.preferences,
                               pattern=trace.pattern, horizon=context.horizon)
            assert pickle.dumps(per_run) == pickle.dumps(trace)

    def test_round_spans_count_the_misses(self, tmp_path):
        protocol, context = MEMO_CASES["minimal-so-n4"]
        simulator = BatchSimulator(protocol, context.n)
        path = tmp_path / "trace.jsonl"
        obs_trace.enable(path)
        try:
            simulator.simulate_patterns(
                context.patterns(), enumerate_preferences(context.n), context.horizon)
        finally:
            obs_trace.disable()
        rounds = [record["attrs"] for record in obs_trace.read_trace(path)
                  if record["type"] == "span" and record["name"] == "build.round"]
        assert len(rounds) == context.horizon
        assert sum(attrs["updates"] for attrs in rounds) == len(simulator._updates)
        assert all(0 <= attrs["updates"] <= attrs["distinct"] * context.n
                   for attrs in rounds)

    def test_refused_update_raises_on_its_first_transition(self):
        """The refused state is reached by several transitions, with two inboxes.

        Whichever order the scenarios come in, the batch raises the per-run
        engine's first error; a simulator that already raised raises it again
        (a refused update is never memoised).
        """
        quiet = ((1, 1, 1), None)
        # Agent 1 decides 0 in round 0 but omits to agent 2, so agent 2 is in
        # the same state at time 1 while agent 0 decides 0 and tells it.
        told = ((1, 0, 1), FailurePattern.from_blocked(3, [(0, 1, 2)]))
        # Another round-0 transition that leaves agent 2 as in ``quiet``.
        quiet_again = ((1, 1, 1), FailurePattern.from_blocked(3, [(0, 0, 1)]))
        protocol = _RefusingUpdateProtocol(1)

        def per_run_errors(scenarios):
            errors = []
            for preferences, pattern in scenarios:
                with pytest.raises(ProtocolError) as excinfo:
                    simulate(protocol, 3, preferences, pattern=pattern, horizon=2)
                errors.append(str(excinfo.value))
            return errors

        assert len(set(per_run_errors([quiet, told, quiet_again]))) == 2
        for scenarios in ([quiet, told], [told, quiet], [told, quiet_again, quiet],
                          [quiet_again, told]):
            expected = per_run_errors(scenarios)[0]
            simulator = BatchSimulator(protocol, 3)
            for _ in range(2):
                with pytest.raises(ProtocolError) as excinfo:
                    simulator.simulate_scenarios(scenarios, 2)
                assert str(excinfo.value) == expected


def _system_partitions(system):
    return [system.partition(agent) for agent in range(system.n)]


class _CheckpointCounter:
    """A cancel-scope check that raises on its ``fail_at``-th call."""

    def __init__(self, fail_at=None):
        self.calls = 0
        self.fail_at = fail_at

    def __call__(self):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("cancelled")


class TestExecutorBatchFanOut:
    def test_build_under_a_cancel_scope_matches_one_pass(self, monkeypatch):
        """A build runs in-process, in chunks, without starting a pool.

        Runs and partitions equal one unchunked pass of a single simulator,
        with or without an active cancel scope.
        """
        import concurrent.futures

        from repro.core.cancel import cancellable
        from repro.systems import interpreted

        context = gamma_min(3, 1)
        patterns = list(context.patterns())
        prefs = [tuple(p) for p in enumerate_preferences(3)]
        simulator = BatchSimulator(MinProtocol(1), 3)
        one_pass = simulator.simulate_patterns(patterns, prefs, context.horizon)
        one_pass_partitions = simulator.partitions(context.horizon)

        def no_pool(*args, **kwargs):
            raise AssertionError("system construction started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(interpreted, "BUILD_CHUNK_PATTERNS", 16)
        assert len(patterns) > 2 * interpreted.BUILD_CHUNK_PATTERNS
        reference = context.build_system(MinProtocol(1))
        assert _trace_bytes(reference.runs) == _trace_bytes(one_pass)
        assert _system_partitions(reference) == [
            one_pass_partitions[agent] for agent in range(reference.n)]
        with cancellable(_CheckpointCounter()):
            system = context.build_system(MinProtocol(1))
        assert _trace_bytes(system.runs) == _trace_bytes(reference.runs)
        assert _system_partitions(system) == _system_partitions(reference)

    def test_checkpoint_every_round_and_raising_stores_nothing(self, monkeypatch, tmp_path):
        from repro.core.cancel import cancellable
        from repro.store import default_store
        from repro.systems import interpreted
        monkeypatch.setattr(interpreted, "BUILD_CHUNK_PATTERNS", 16)
        context = gamma_min(3, 1)
        acts = []

        class CountingMin(MinProtocol):
            def act(self, state):
                acts.append(state)
                return super().act(state)

        check = _CheckpointCounter()
        with cancellable(check):
            context.build_system(CountingMin(1))
        chunks = -(-len(list(context.patterns())) // 16)
        # One poll at the top of each round of each chunk, and one before
        # each protocol call the simulator has not memoised.
        assert acts and check.calls == chunks * context.horizon + len(acts)
        store = default_store(tmp_path)
        check = _CheckpointCounter(fail_at=3)
        with cancellable(check), pytest.raises(RuntimeError, match="cancelled"):
            context.build_system(MinProtocol(1), store=store)
        assert check.calls == 3
        assert store.stats().entries == 0


def _per_run_traces(tasks):
    """The oracle of ``simulate_tasks``: one ``simulate()`` call per task."""
    return [simulate(protocol, n, preferences, pattern=pattern, horizon=horizon)
            for protocol, n, preferences, pattern, horizon in tasks]


class _StallingProtocol(ActionProtocol):
    """``E_min`` with a protocol that never decides."""

    name = "P_stall"

    def make_exchange(self, n):
        return MinProtocol(self.t).make_exchange(n)

    def act(self, state):
        return NOOP


class TestSimulateTasks:
    """Every ``simulate_tasks`` trace pickles to the bytes of ``simulate()``'s."""

    @pytest.mark.parametrize("horizon", [None, 3])
    @pytest.mark.parametrize("model_name", MODELS)
    def test_random_model_sweeps(self, model_name, horizon):
        n, t = 4, 1
        scenarios = random_model_scenarios(n, t, 30, model=model_name, seed=23,
                                           omission_probability=0.4)
        tasks = [(protocol, n, preferences, pattern, horizon)
                 for protocol in (MinProtocol(t), BasicProtocol(t), OptimalFipProtocol(t))
                 for preferences, pattern in scenarios]
        assert _trace_bytes(simulate_tasks(tasks)) == _trace_bytes(_per_run_traces(tasks))

    @pytest.mark.parametrize("factory, n, t", [
        (MinProtocol, 3, 1), (MinProtocol, 8, 3), (MinProtocol, 20, 6),
        (BasicProtocol, 3, 1), (BasicProtocol, 8, 3), (BasicProtocol, 20, 6),
        (OptimalFipProtocol, 3, 1), (OptimalFipProtocol, 8, 3),
    ])
    def test_until_decided_across_sizes(self, factory, n, t):
        protocol = factory(t)
        scenarios = random_model_scenarios(n, t, 16, seed=n, omission_probability=0.3)
        tasks = [(protocol, n, preferences, pattern, None)
                 for preferences, pattern in scenarios]
        traces = simulate_tasks(tasks)
        assert _trace_bytes(traces) == _trace_bytes(_per_run_traces(tasks))
        assert all(state.decided is not None for trace in traces
                   for state in trace.states_at(trace.horizon))

    def test_mixed_protocols_and_horizons_keep_task_order(self, monkeypatch):
        """Consecutive tasks of one ``(protocol, n)`` share a simulator across horizons."""
        scenarios = random_model_scenarios(4, 1, 6, seed=5)
        low, high = MinProtocol(1), OptimalFipProtocol(1)
        tasks = [(low, 4, *scenario, horizon)
                 for scenario, horizon in zip(scenarios, [None, None, 2, 0, None, 4])]
        tasks += [(high, 4, *scenarios[0], None), (low, 4, *scenarios[1], 3),
                  (low, 3, (1, 0, 1), None, None)]
        simulators = []
        init = BatchSimulator.__init__

        def spy(self, protocol, n):
            simulators.append((protocol, n))
            init(self, protocol, n)

        monkeypatch.setattr(BatchSimulator, "__init__", spy)
        traces = simulate_tasks(tasks)
        monkeypatch.undo()
        assert simulators == [(low, 4), (high, 4), (low, 4), (low, 3)]
        assert _trace_bytes(traces) == _trace_bytes(_per_run_traces(tasks))
        assert [trace.horizon for trace in traces][2:4] == [2, 0]

    def test_stalling_protocol_raises_the_per_run_error(self):
        scenarios = [((1, 1, 1), None),
                     ((0, 1, 1), FailurePattern.silent(3, faulty=[2], horizon=2))]
        tasks = [(MinProtocol(1), 3, *scenarios[0], None)] + [
            (_StallingProtocol(1), 3, *scenario, None) for scenario in reversed(scenarios)]
        with pytest.raises(ProtocolError) as per_run:
            _per_run_traces(tasks)
        with pytest.raises(ProtocolError) as batched:
            simulate_tasks(tasks)
        assert str(batched.value) == str(per_run.value)
        assert "did not terminate within 24 rounds" in str(batched.value)


class TestValidation:
    def test_duplicate_pattern_rejected_naming_the_pattern(self):
        pattern = FailurePattern.silent(3, faulty=[0], horizon=2)
        patterns = [FailurePattern.failure_free(3), pattern, pattern]
        with pytest.raises(ModelCheckingError) as excinfo:
            build_system(MinProtocol(1), 3, 2, patterns)
        message = str(excinfo.value)
        assert "duplicate failure pattern" in message
        assert pattern.describe() in message
        assert "positions 1 and 2" in message

    def test_equal_but_distinct_pattern_objects_are_still_duplicates(self):
        first = FailurePattern.silent(3, faulty=[0], horizon=2)
        second = FailurePattern.silent(3, faulty=[0], horizon=2)
        assert first is not second
        with pytest.raises(ModelCheckingError, match="duplicate failure pattern"):
            build_system(MinProtocol(1), 3, 2, [first, second])

    def test_pattern_for_wrong_n_rejected(self):
        with pytest.raises(ConfigurationError, match="4 agents"):
            simulate_batch(MinProtocol(1), 3,
                           [((1, 1, 1), FailurePattern.failure_free(4))], 2)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            simulate_batch(MinProtocol(1), 3, [((1, 1, 1), None)], -1)
