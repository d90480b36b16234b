"""Tests for the declarative spec layer: RunSpec, SweepSpec, and the Sweep builder."""

import random

import pytest

from repro.api import RunSpec, Sweep, SweepSpec
from repro.core.errors import ConfigurationError
from repro.failures import FailurePattern
from repro.protocols import BasicProtocol, MinProtocol, OptimalFipProtocol
from repro.workloads import random_scenarios


class TestRunSpec:
    def test_run_produces_the_engine_trace(self):
        trace = RunSpec(MinProtocol(1), n=4, preferences=(0, 1, 1, 1)).run()
        assert trace.protocol_name == "P_min"
        assert trace.decision_value(0) == 0

    def test_preferences_are_validated_and_frozen(self):
        spec = RunSpec(MinProtocol(1), n=4, preferences=[0, 1, 1, 1])
        assert spec.preferences == (0, 1, 1, 1)
        with pytest.raises(ConfigurationError):
            RunSpec(MinProtocol(1), n=4, preferences=(0, 1))

    def test_pattern_size_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSpec(MinProtocol(1), n=4, preferences=(1, 1, 1, 1),
                    pattern=FailurePattern.failure_free(5))

    def test_spec_is_frozen(self):
        spec = RunSpec(MinProtocol(1), n=4, preferences=(1, 1, 1, 1))
        with pytest.raises(AttributeError):
            spec.n = 5

    def test_as_sweep_round_trips(self):
        spec = RunSpec(MinProtocol(1), n=4, preferences=(0, 1, 1, 1))
        results = Sweep.of(spec.protocol).on([spec.scenario], n=spec.n).run()
        assert results.trace("P_min") == spec.run()


class TestSweepSpecValidation:
    def test_duplicate_protocol_names_raise_configuration_error(self):
        scenarios = random_scenarios(4, 1, count=1)
        with pytest.raises(ConfigurationError, match="P_min"):
            SweepSpec(protocols=(MinProtocol(1), MinProtocol(2)), n=4,
                      scenarios=tuple(scenarios))

    def test_all_colliding_names_are_reported(self):
        scenarios = tuple(random_scenarios(4, 1, count=1))
        with pytest.raises(ConfigurationError) as excinfo:
            SweepSpec(protocols=(MinProtocol(1), MinProtocol(2),
                                 BasicProtocol(1), BasicProtocol(2)),
                      n=4, scenarios=scenarios)
        assert "P_min" in str(excinfo.value)
        assert "P_basic" in str(excinfo.value)

    def test_empty_protocols_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(protocols=(), n=4, scenarios=tuple(random_scenarios(4, 1, count=1)))

    def test_scenario_pattern_size_mismatch_rejected(self):
        bad = ((1, 1, 1, 1), FailurePattern.failure_free(5))
        with pytest.raises(ConfigurationError):
            SweepSpec(protocols=(MinProtocol(1),), n=4, scenarios=(bad,))

    def test_task_order_is_protocol_major_and_deterministic(self):
        scenarios = tuple(random_scenarios(4, 1, count=3))
        spec = SweepSpec(protocols=(MinProtocol(1), BasicProtocol(1)), n=4,
                         scenarios=scenarios)
        tasks = spec.tasks()
        assert len(tasks) == len(spec) == 6
        assert [task[0].name for task in tasks] == ["P_min"] * 3 + ["P_basic"] * 3
        assert tasks == spec.tasks()


class TestSweepBuilder:
    def test_fluent_build_matches_direct_construction(self):
        scenarios = tuple(random_scenarios(4, 1, count=2, seed=3))
        built = (Sweep.of(MinProtocol(1), OptimalFipProtocol(1))
                 .on(scenarios).with_horizon(4).build())
        direct = SweepSpec(protocols=(MinProtocol(1), OptimalFipProtocol(1)),
                           n=4, scenarios=scenarios, horizon=4)
        assert built.protocol_names == direct.protocol_names
        assert built.scenarios == direct.scenarios
        assert built.horizon == direct.horizon == 4

    def test_n_inferred_from_workload(self):
        spec = Sweep.of(MinProtocol(1)).on(random_scenarios(5, 1, count=2)).build()
        assert spec.n == 5

    def test_builder_steps_do_not_mutate_the_receiver(self):
        base = Sweep.of(MinProtocol(1))
        with_workload = base.on(random_scenarios(4, 1, count=1))
        with_horizon = with_workload.with_horizon(3)
        assert base._scenarios is None
        assert with_workload._horizon is None
        assert with_horizon._horizon == 3
        # A shared prefix can be forked without cross-talk.
        forked = with_workload.with_horizon(7)
        assert with_horizon._horizon == 3
        assert forked._horizon == 7

    def test_builder_without_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            Sweep.of(MinProtocol(1)).build()

    def test_on_clears_a_previously_recorded_seed(self):
        sweep = (Sweep.of(MinProtocol(1))
                 .on_random(4, 1, count=2, seed=5)
                 .on(random_scenarios(4, 1, count=1)))
        assert sweep.build().seed is None

    def test_on_random_records_the_seed(self):
        spec = Sweep.of(MinProtocol(1)).on_random(4, 1, count=3, seed=9).build()
        assert spec.seed == 9
        assert len(spec.scenarios) == 3

    def test_seed_determinism_of_on_random(self):
        first = Sweep.of(MinProtocol(1)).on_random(4, 1, count=5, seed=11).build()
        second = Sweep.of(MinProtocol(1)).on_random(4, 1, count=5, seed=11).build()
        other = Sweep.of(MinProtocol(1)).on_random(4, 1, count=5, seed=12).build()
        assert first.scenarios == second.scenarios
        assert first.scenarios != other.scenarios
        # ... and identical workloads produce identical results.
        assert first.run() == second.run()


class TestRandomInstanceSeeding:
    def test_random_instance_gives_deterministic_independent_streams(self):
        first = random_scenarios(4, 1, count=4, seed=random.Random(21))
        again = random_scenarios(4, 1, count=4, seed=random.Random(21))
        other = random_scenarios(4, 1, count=4, seed=random.Random(22))
        assert first == again
        assert first != other

    def test_random_instance_stream_advances(self):
        rng = random.Random(33)
        first = random_scenarios(4, 1, count=2, seed=rng)
        second = random_scenarios(4, 1, count=2, seed=rng)
        assert first != second

    def test_int_seed_behaviour_unchanged(self):
        assert random_scenarios(4, 1, count=3, seed=7) == random_scenarios(4, 1, count=3, seed=7)
