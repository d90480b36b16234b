"""Integration tests for cache-aware execution (:mod:`repro.store.caching`).

The pipeline-level correctness properties:

* a run with a store serves hits, simulates only misses, and preserves task
  order (so cached and uncached sweeps are byte-identical);
* ``RunSpec.run`` / ``SweepSpec.run`` with a store are warm-idempotent, and an
  interrupted sweep resumes at the first missing key (``missing_tasks``);
* ``build_system`` / ``check_implements`` / ``check_safety`` and E7's
  ``P1 ≡ P0`` verdicts consult the store: warm reports are byte-identical to
  cold ones (Theorems 6.5 / 6.6), a warm verdict builds no system, and
  mutating any key-relevant spec field forces a recompute;
* a context-built system is keyed by the context's definition: every
  definition field separates keys, a hit enumerates no pattern and equals a
  fresh build, and a failure model from outside ``repro`` falls back to the
  pattern-listing key;
* the CLI ``cache`` subcommand and ``--cache-dir`` flags drive the same store.
"""

from __future__ import annotations

import dataclasses
import pickle
import time
from typing import List

import pytest

from repro.api import RunSpec, Sweep, specs
from repro.cli import main as cli_main
from repro.experiments import decision_rounds, implementation_check
from repro.failures import FailurePattern, ReceiveOmissionModel, SendingOmissionModel
from repro.kbp import check_implements, make_p0
from repro.kbp.safety import check_safety
from repro.protocols import BasicProtocol, MinProtocol
from repro.simulation.batch import simulate_tasks
from repro.store import context_system_key, default_store, system_key
from repro.systems import EBAContext, build_system, gamma_basic, gamma_min
from repro.workloads import random_scenarios
from repro.workloads.preferences import enumerate_preferences


@pytest.fixture
def store(tmp_path):
    return default_store(tmp_path / "cache")


@pytest.fixture
def simulated(monkeypatch) -> List[tuple]:
    """Every task the run API simulates, in the order it simulates them."""
    tasks_run: List[tuple] = []

    def counting(tasks):
        tasks_run.extend(tasks)
        return simulate_tasks(tasks)
    monkeypatch.setattr(specs, "simulate_tasks", counting)
    return tasks_run


_P_MIN = MinProtocol(1)


def _sweep(scenarios) -> "specs.SweepSpec":
    """A P_min sweep; every call shares one protocol, so tasks compare equal."""
    return Sweep.of(_P_MIN).on(scenarios, n=3).build()


# --------------------------------------------------------------------------- runs


class TestPerRunCaching:
    """Per-run caching: hits are served, only misses are simulated."""

    def test_miss_then_hit(self, store, simulated):
        spec = RunSpec(MinProtocol(1), 3, (1, 1, 0), FailurePattern.failure_free(3))
        first = spec.run(store=store)
        second = spec.run(store=store)
        assert first == second
        assert len(simulated) == 1  # the second call was a pure hit

    def test_partial_hits_preserve_order(self, store, simulated):
        scenarios = random_scenarios(3, 1, count=4, seed=5)
        tasks = _sweep(scenarios).tasks()
        # Pre-cache tasks 1 and 3 only.
        _sweep([scenarios[1], scenarios[3]]).run(store=store)
        simulated.clear()
        results = _sweep(scenarios).run(store=store)
        assert [task for task in simulated] == [tasks[0], tasks[2]]
        reference = simulate_tasks(tasks)
        assert list(results["P_min"]) == reference  # order and content identical to uncached


# --------------------------------------------------------------------------- specs


class TestSpecCaching:
    def test_runspec_warm_is_identical(self, store):
        spec = RunSpec(MinProtocol(1), 3, (1, 0, 1))
        cold = spec.run(store=store)
        warm = spec.run(store=store)
        assert cold == warm
        assert store.stats().hits >= 1

    def test_runspec_default_pattern_shares_sweep_key(self, store):
        """pattern=None and the sweep's explicit failure-free pattern must
        address the same cache entry (one run, one key)."""
        RunSpec(MinProtocol(1), 3, (1, 0, 1)).run(store=store)
        spec = (Sweep.of(MinProtocol(1))
                .on([((1, 0, 1), FailurePattern.failure_free(3))], n=3).build())
        assert spec.missing_tasks(store) == ()

    def test_sweep_warm_resultset_identical(self, store):
        sweep = (Sweep.of(MinProtocol(1), BasicProtocol(1))
                 .on_random(3, 1, count=4, seed=9))
        cold = sweep.run(store=store)
        warm = sweep.run(store=store)
        assert cold == warm  # ResultSet equality is structural over every trace
        assert warm == sweep.run()  # and identical to the uncached result

    def test_sweep_resume_restarts_at_first_missing_key(self, store, simulated):
        # Distinct scenarios by construction: random workloads may repeat a
        # scenario, and the content-addressed store would (correctly) dedup it.
        pattern = FailurePattern.failure_free(3)
        scenarios = [((int(bit) for bit in f"{index:03b}"), pattern)
                     for index in range(6)]
        spec = Sweep.of(MinProtocol(1)).on(scenarios, n=3).build()
        assert len(spec.missing_tasks(store)) == 6
        # Simulate an interrupted sweep: only the first 2 tasks completed.
        _sweep(spec.scenarios[:2]).run(store=store)
        missing = spec.missing_tasks(store)
        assert missing == spec.tasks()[2:]
        simulated.clear()
        spec.run(store=store)
        assert list(simulated) == list(missing)  # resumed, not restarted

    def test_missing_tasks_without_store_is_everything(self):
        spec = Sweep.of(MinProtocol(1)).on_random(3, 1, count=3, seed=1).build()
        assert spec.missing_tasks(None) == spec.tasks()

    def test_spec_field_change_forces_recompute(self, store, simulated):
        base = Sweep.of(MinProtocol(1)).on_random(3, 1, count=2, seed=7)
        base.run(store=store)
        simulated.clear()
        base.with_horizon(4).run(store=store)
        assert len(simulated) == 2  # different horizon => full recompute


# --------------------------------------------------------------------------- systems and reports


class TestModelCheckingCaching:
    def test_build_system_warm_equals_cold(self, store):
        context = gamma_min(3, 1)
        cold = context.build_system(MinProtocol(1), store=store)
        fresh_store = default_store(store.backend.root)  # disk path, no memory
        warm = context.build_system(MinProtocol(1), store=fresh_store)
        assert warm.n == cold.n and warm.horizon == cold.horizon
        assert warm.protocol_name == cold.protocol_name
        assert warm.runs == cold.runs
        stats = fresh_store.stats()
        assert (stats.hits, stats.misses) == (1, 0)

    def test_build_system_key_covers_patterns_and_preferences(self, store):
        patterns = [FailurePattern.failure_free(3)]
        build_system(MinProtocol(1), 3, 3, patterns, store=store)
        baseline_puts = store.stats().puts
        # Different preference set: must rebuild, not hit.
        build_system(MinProtocol(1), 3, 3, patterns,
                     preference_vectors=[(1, 1, 1)], store=store)
        assert store.stats().puts == baseline_puts + 1

    def test_theorem_reports_byte_identical_cold_vs_warm(self, store):
        """Theorem 6.5 / 6.6: the warm-cache report renders byte-identically."""
        cold = implementation_check.report(n=3, t=1, store=store)
        warm = implementation_check.report(n=3, t=1,
                                           store=default_store(store.backend.root))
        assert warm == cold
        assert "True" in cold

    def test_check_implements_spec_field_invalidation(self, store):
        check_implements(MinProtocol(1), make_p0(3), gamma_min(3, 1), store=store)
        puts_before = store.stats().puts
        # Different context horizon => different key => recompute.
        check_implements(MinProtocol(1), make_p0(3), gamma_min(3, 1, horizon=4),
                         store=store)
        assert store.stats().puts > puts_before
        # Different max_mismatches bound is also part of the key.
        puts_before = store.stats().puts
        check_implements(MinProtocol(1), make_p0(3), gamma_min(3, 1),
                         max_mismatches=3, store=store)
        assert store.stats().puts > puts_before

    def test_caller_supplied_system_bypasses_report_cache(self, store):
        context = gamma_min(3, 1)
        system = context.build_system(MinProtocol(1), store=store)
        hits_before = store.stats().hits
        report = check_implements(MinProtocol(1), make_p0(3), context,
                                  system=system, store=store)
        assert report.ok
        # No report was read from or written to the store for this call.
        assert store.stats().hits == hits_before
        assert store.stats().by_kind.get("implementation-report") is None

    def test_equivalence_verdicts_served_without_a_build(self, store, monkeypatch):
        """E7's ``P1 ≡ P0`` rows are report hits: a warm pass builds no system."""
        cold = implementation_check.check_p0_p1_equivalence(3, 1, store=store)
        assert cold == {"gamma_min": True, "gamma_basic": True}
        assert store.stats().by_kind["equivalence-report"] == 2

        def refuse(*args, **kwargs):
            raise AssertionError("a warm equivalence verdict built a system")

        monkeypatch.setattr(EBAContext, "build_system", refuse)
        warm = implementation_check.check_p0_p1_equivalence(
            3, 1, store=default_store(store.backend.root))
        assert warm == cold
        # Another context is another key: it misses and builds.
        with pytest.raises(AssertionError, match="built a system"):
            implementation_check.check_p0_p1_equivalence(3, 0, store=store)

    def test_check_safety_warm_equals_cold(self, store):
        context = gamma_basic(3, 1)
        cold = check_safety(BasicProtocol(1), context, store=store)
        warm = check_safety(BasicProtocol(1), context,
                            store=default_store(store.backend.root))
        assert repr(warm) == repr(cold)
        assert warm.safe and warm.points_checked == cold.points_checked


# --------------------------------------------------------------------------- context definition keys


@dataclasses.dataclass(frozen=True)
class OutsideModel(SendingOmissionModel):
    """SO(t) under a class the code fingerprint does not cover."""


#: One changed definition field per entry, against ``gamma_min(3, 1)`` and P_min(1).
DEFINITION_CHANGES = {
    "n": lambda context: (MinProtocol(1), dataclasses.replace(context, n=4)),
    "t": lambda context: (MinProtocol(1), dataclasses.replace(context, t=2)),
    "horizon": lambda context: (MinProtocol(1), dataclasses.replace(context, horizon=4)),
    "model-class": lambda context: (MinProtocol(1), dataclasses.replace(
        context, failure_model=ReceiveOmissionModel(n=3, t=1))),
    "model-t": lambda context: (MinProtocol(1), dataclasses.replace(
        context, failure_model=SendingOmissionModel(n=3, t=2))),
    "max-faulty": lambda context: (MinProtocol(1), dataclasses.replace(
        context, max_faulty_enumerated=1)),
    "protocol-class": lambda context: (BasicProtocol(1), context),
    "protocol-t": lambda context: (MinProtocol(2), context),
}


class TestContextSystemKey:
    @pytest.mark.parametrize("field", sorted(DEFINITION_CHANGES))
    def test_every_definition_field_separates_keys(self, field):
        base = gamma_min(3, 1)
        protocol, changed = DEFINITION_CHANGES[field](base)
        assert context_system_key(protocol, changed) != context_system_key(MinProtocol(1), base)

    def test_name_is_not_part_of_the_key(self):
        base = gamma_min(3, 1)
        renamed = dataclasses.replace(base, name="renamed")
        assert context_system_key(MinProtocol(1), renamed) == \
            context_system_key(MinProtocol(1), base)

    def test_never_equals_the_pattern_listing_key(self):
        context = gamma_min(3, 1)
        listed = system_key(MinProtocol(1), 3, context.horizon, list(context.patterns()),
                            list(enumerate_preferences(3)))
        assert context_system_key(MinProtocol(1), context) != listed

    def test_hit_equals_a_fresh_build(self, store):
        context = gamma_min(3, 1)
        context.build_system(MinProtocol(1), store=store)
        warm = context.build_system(MinProtocol(1), store=default_store(store.backend.root))
        fresh = context.build_system(MinProtocol(1))
        assert pickle.dumps(warm.run_table()) == pickle.dumps(fresh.run_table())
        assert [warm.partition(agent) for agent in range(3)] == \
            [fresh.partition(agent) for agent in range(3)]
        assert store.contains(context_system_key(MinProtocol(1), context))

    def test_warm_n4_hit_enumerates_nothing(self, store, monkeypatch):
        context = gamma_min(4, 1)
        context.build_system(MinProtocol(1), store=store)
        calls = []
        original = SendingOmissionModel.enumerate

        def spy(model, *args, **kwargs):
            calls.append(args)
            return original(model, *args, **kwargs)
        monkeypatch.setattr(SendingOmissionModel, "enumerate", spy)
        warm = context.build_system(MinProtocol(1), store=default_store(store.backend.root))
        assert calls == [] and len(warm.runs) == 32784
        timings = []
        for _ in range(5):
            start = time.perf_counter()
            context_system_key(MinProtocol(1), context)
            timings.append(time.perf_counter() - start)
        assert min(timings) <= 0.005

    def test_outside_failure_model_keys_by_patterns(self, store):
        context = EBAContext(name="outside", n=3, t=1, horizon=3,
                             failure_model=OutsideModel(n=3, t=1))
        context.build_system(MinProtocol(1), store=store)
        listed = system_key(MinProtocol(1), 3, 3, list(context.patterns()),
                            list(enumerate_preferences(3)))
        assert store.contains(listed)
        assert not store.contains(context_system_key(MinProtocol(1), context))


# --------------------------------------------------------------------------- experiments and CLI


class TestSurfaceArea:
    def test_experiment_report_warm_identical(self, store):
        cold = decision_rounds.report(settings=((4, 1),), store=store)
        warm = decision_rounds.report(settings=((4, 1),),
                                      store=default_store(store.backend.root))
        assert warm == cold

    def test_cli_cache_warm_stats_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cli-cache")
        assert cli_main(["cache", "warm", "--n", "3", "--t", "1",
                         "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "Theorem 6.5" in out and "ok" in out

        assert cli_main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries      : 4" in out
        assert "implementation-report: 2" in out

        assert cli_main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "deleted 4 entries" in capsys.readouterr().out
        assert cli_main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries      : 0" in capsys.readouterr().out

    def test_cli_experiment_cache_dir_flag(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cli-cache")
        assert cli_main(["experiment", "e2", "--n", "4", "--t", "1",
                         "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().out
        assert cli_main(["experiment", "e2", "--n", "4", "--t", "1",
                         "--cache-dir", cache_dir]) == 0
        second = capsys.readouterr().out
        assert first == second
        stats = default_store(cache_dir).stats()
        assert stats.entries > 0
