"""Tests for the execution backends: serial/parallel equivalence and the ResultSet."""

import ast
from pathlib import Path

import pytest

from repro.api import (
    Executor,
    ParallelExecutor,
    ResultSet,
    SerialExecutor,
    Sweep,
    resolve_executor,
)
from repro.core.errors import ConfigurationError
from repro.protocols import BasicProtocol, MinProtocol, NaiveZeroBiasedProtocol, OptimalFipProtocol
from repro.workloads import example_7_1, intro_counterexample, random_scenarios


def example_7_1_spec(n=6, t=2):
    protocols = (MinProtocol(t), BasicProtocol(t), OptimalFipProtocol(t))
    return Sweep.of(*protocols).on([example_7_1(n=n, t=t)], n=n).build()


def intro_spec(n=4, t=1):
    protocols = (NaiveZeroBiasedProtocol(t), MinProtocol(t))
    return Sweep.of(*protocols).on([intro_counterexample(n=n, t=t)], n=n).build()


class TestExecutorEquivalence:
    def test_example_7_1_serial_equals_parallel(self):
        spec = example_7_1_spec()
        serial = spec.run(SerialExecutor())
        parallel = spec.run(ParallelExecutor(max_workers=2))
        assert serial == parallel
        assert serial.trace("P_opt").last_decision_round(nonfaulty_only=True) == 3

    def test_intro_counterexample_serial_equals_parallel(self):
        spec = intro_spec()
        serial = spec.run(SerialExecutor())
        parallel = spec.run(ParallelExecutor(max_workers=2))
        assert serial == parallel

    @pytest.mark.parametrize("n, t, count, seed", [(4, 1, 200, 13), (6, 2, 500, 5)])
    def test_fixed_seed_sweep_is_byte_identical_across_backends(
            self, n, t, count, seed):
        import pickle
        spec = (Sweep.of(MinProtocol(t), BasicProtocol(t))
                .on_random(n, t, count=count, seed=seed).build())
        serial = spec.run(SerialExecutor())
        parallel = spec.run(ParallelExecutor(max_workers=3, chunksize=7))
        assert len(serial) == count
        assert serial == parallel
        # Byte-identical contents: every trace serializes to the same bytes.
        # (Whole-ResultSet pickles can differ in memoization topology only:
        # the serial traces share scenario objects with the spec, the
        # parallel ones are worker-side copies.)
        for serial_row, parallel_row in zip(serial.traces, parallel.traces):
            for serial_trace, parallel_trace in zip(serial_row, parallel_row):
                assert pickle.dumps(serial_trace) == pickle.dumps(parallel_trace)

    def test_popt_traces_byte_identical_across_backends(self):
        import pickle
        spec = (Sweep.of(OptimalFipProtocol(2), MinProtocol(2))
                .on([example_7_1(n=6, t=2)], n=6).build())
        serial = spec.run(SerialExecutor())
        parallel = spec.run(ParallelExecutor(max_workers=2, chunksize=1))
        for name in spec.protocol_names:
            assert pickle.dumps(serial.trace(name)) == pickle.dumps(parallel.trace(name))

    def test_default_executor_is_serial(self):
        spec = intro_spec()
        assert spec.run() == spec.run(SerialExecutor())


class TestParallelExecutor:
    def test_order_is_scenario_order_not_completion_order(self):
        scenarios = random_scenarios(4, 1, count=10, seed=2)
        results = Sweep.of(MinProtocol(1)).on(scenarios, n=4).run(
            ParallelExecutor(max_workers=2, chunksize=1))
        for scenario, trace in zip(scenarios, results["P_min"]):
            assert trace.preferences == tuple(scenario[0])
            assert trace.pattern == scenario[1]

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(max_workers=0)
        with pytest.raises(ConfigurationError):
            ParallelExecutor(chunksize=0)

    def test_single_task_avoids_the_pool(self):
        trace = (Sweep.of(MinProtocol(1))
                 .on([intro_counterexample(n=4, t=1)], n=4)
                 .run(ParallelExecutor()))["P_min"][0]
        assert trace.protocol_name == "P_min"


def _executor_parameters(tree, prefix=""):
    """Qualified names of the functions under ``tree`` that take an ``executor``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = prefix + getattr(node, "name", "<lambda>")
            arguments = node.args
            if any(argument.arg == "executor" for argument in
                   arguments.posonlyargs + arguments.args + arguments.kwonlyargs):
                yield name
            yield from _executor_parameters(node, name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _executor_parameters(node, prefix + node.name + ".")
        else:
            yield from _executor_parameters(node, prefix)


class TestWhereRunsExecute:
    def test_only_the_run_api_takes_an_executor(self):
        """Every layer above the run API runs in-process.  ``check_safety``
        and ``check_theorems`` keep an unused, documented ``executor``."""
        source = Path(__file__).resolve().parent.parent / "src"
        found = set()
        for path in sorted(source.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            module = path.relative_to(source).with_suffix("").as_posix()
            found.update(f"{module}:{name}" for name in _executor_parameters(tree))
        assert found == {
            "repro/api/specs:RunSpec.run",
            "repro/api/specs:SweepSpec.run",
            "repro/api/specs:Sweep.run",
            "repro/api/executors:resolve_executor",
            "repro/kbp/safety:check_safety",
            "repro/experiments/failure_model_comparison:check_theorems",
        }


class TestResolveExecutor:
    def test_none_resolves_to_serial(self):
        assert isinstance(resolve_executor(None), SerialExecutor)

    def test_custom_executor_passes_through(self):
        class Recording:
            def __init__(self):
                self.calls = 0

            def run_tasks(self, tasks):
                self.calls += 1
                return SerialExecutor().run_tasks(tasks)

        recording = Recording()
        assert isinstance(recording, Executor)
        spec = intro_spec()
        spec.run(recording)
        assert recording.calls == 1

    def test_non_executor_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_executor(object())


class TestResultSet:
    @pytest.fixture(scope="class")
    def results(self):
        protocols = (MinProtocol(1), BasicProtocol(1))
        return Sweep.of(*protocols).on(random_scenarios(4, 1, count=3, seed=1), n=4).run()

    def test_batch_view_matches_legacy_shape(self, results):
        batch = results["P_min"]
        assert {trace.protocol_name for trace in batch} == {"P_min"}
        assert len(batch) == len(results) == 3
        assert set(results) == {"P_min", "P_basic"}

    def test_corresponding_view(self, results):
        runs = results.corresponding(1)
        assert set(runs) == {"P_min", "P_basic"}
        assert runs["P_min"].preferences == runs["P_basic"].preferences
        assert runs["P_min"].pattern == runs["P_basic"].pattern

    def test_unknown_protocol_rejected(self, results):
        with pytest.raises(ConfigurationError, match="P_opt"):
            results["P_opt"]

    def test_compare_and_pairwise(self, results):
        comparison = results.compare("P_min", "P_basic")
        assert comparison.scenarios == 3
        assert set(results.pairwise()) == {("P_min", "P_basic")}

    def test_check_eba_and_violation_counts(self):
        results = (Sweep.of(NaiveZeroBiasedProtocol(1), MinProtocol(1))
                   .on([intro_counterexample(n=4, t=1)], n=4).run())
        violations = results.spec_violations()
        assert violations["P_naive0"] == 1
        assert violations["P_min"] == 0

    def test_rows_and_table_render(self, results):
        rows = results.rows()
        assert len(rows) == 6
        table = results.table(title="demo")
        assert "P_min" in table and "demo" in table

    def test_corresponding_helper(self):
        preferences, pattern = intro_counterexample(n=4, t=1)
        runs = (Sweep.of(MinProtocol(1), BasicProtocol(1))
                .on([(preferences, pattern)], n=4).run().corresponding())
        assert set(runs) == {"P_min", "P_basic"}
        assert all(run.preferences == preferences and run.pattern == pattern
                   for run in runs.values())

    def test_mismatched_shape_rejected(self, results):
        with pytest.raises(ConfigurationError):
            ResultSet(protocol_names=("a", "b"), scenarios=results.scenarios,
                      traces=(results.traces[0],))
        with pytest.raises(ConfigurationError):
            ResultSet(protocol_names=("a",), scenarios=results.scenarios,
                      traces=(results.traces[0][:1],))


class TestPoolRebuild:
    """ParallelExecutor survives worker-process death (BrokenProcessPool)."""

    def crash_spec(self, sentinel, count=12):
        from repro.testing import CrashOnceProtocol
        return (Sweep.of(CrashOnceProtocol(1, sentinel))
                .on_random(4, 1, count=count, seed=3).build())

    def test_dead_worker_is_survived_and_results_match_serial(self, tmp_path):
        import pickle
        sentinel = tmp_path / "crash-once"
        spec = self.crash_spec(sentinel)
        # Parallel first: exactly one pool worker wins the sentinel race and
        # dies hard mid-chunk, breaking the pool; the executor rebuilds it and
        # retries only the unfinished chunks.
        parallel = spec.run(ParallelExecutor(max_workers=2, chunksize=1))
        assert sentinel.exists()  # the crash really happened
        # Serial afterwards: the sentinel now exists, so every act() is plain
        # P_min — the honest baseline the retried chunks must match.
        serial = spec.run(SerialExecutor())
        assert serial == parallel
        for serial_row, parallel_row in zip(serial.traces, parallel.traces):
            for serial_trace, parallel_trace in zip(serial_row, parallel_row):
                assert pickle.dumps(serial_trace) == pickle.dumps(parallel_trace)

    def test_exhausted_pool_retries_raises_broken_pool(self, tmp_path):
        from concurrent.futures.process import BrokenProcessPool
        sentinel = tmp_path / "crash-once-no-budget"
        spec = self.crash_spec(sentinel)
        with pytest.raises(BrokenProcessPool, match="giving up"):
            spec.run(ParallelExecutor(max_workers=2, chunksize=1,
                                      pool_retries=0))

    def test_ordinary_task_exceptions_are_not_retried(self, tmp_path):
        """A task *raising* (vs dying) is a real error: it propagates."""
        from repro.testing import FailOnceProtocol, InjectedFault
        sentinel = tmp_path / "fail-once"
        spec = (Sweep.of(FailOnceProtocol(1, sentinel))
                .on_random(4, 1, count=8, seed=3).build())
        with pytest.raises(InjectedFault):
            spec.run(ParallelExecutor(max_workers=2, chunksize=1))

    def test_negative_pool_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(pool_retries=-1)
