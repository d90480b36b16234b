"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, PROTOCOLS, build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "min"
        assert args.n == 6
        assert args.t == 2

    def test_every_registered_protocol_is_constructible(self):
        for name, factory in PROTOCOLS.items():
            protocol = factory(1)
            assert protocol.t == 1, name


class TestRunCommand:
    def test_failure_free_run_exits_zero(self, capsys):
        code = main(["run", "--protocol", "min", "--n", "4", "--t", "1",
                     "--preferences", "0,1,1,1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "EBA specification: OK" in captured.out
        assert "decided 0 in round 1" in captured.out

    def test_example71_scenario_with_fip(self, capsys):
        code = main(["run", "--protocol", "opt", "--scenario", "example71",
                     "--n", "8", "--t", "4"])
        captured = capsys.readouterr()
        assert code == 0
        assert "decided 1 in round 3" in captured.out

    def test_intro_scenario_with_naive_protocol_reports_violation(self, capsys):
        code = main(["run", "--protocol", "naive0", "--scenario", "intro",
                     "--n", "4", "--t", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "violated" in captured.out

    def test_silent_agents_option(self, capsys):
        code = main(["run", "--protocol", "basic", "--n", "5", "--t", "2",
                     "--preferences", "1,1,1,1,1", "--silent", "0,1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "agent 0*" in captured.out

    def test_show_rounds_prints_message_matrix(self, capsys):
        code = main(["run", "--protocol", "min", "--n", "4", "--t", "1",
                     "--preferences", "0,1,1,1", "--show-rounds"])
        captured = capsys.readouterr()
        assert code == 0
        assert "round 1:" in captured.out
        assert "->" in captured.out

    def test_bad_preferences_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--protocol", "min", "--n", "4", "--t", "1",
                  "--preferences", "0,1"])

    def test_random_scenario_is_reproducible(self, capsys):
        main(["run", "--protocol", "min", "--scenario", "random", "--n", "5",
              "--t", "1", "--seed", "3"])
        first = capsys.readouterr().out
        main(["run", "--protocol", "min", "--scenario", "random", "--n", "5",
              "--t", "1", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second


class TestExperimentCommand:
    def test_experiment_e2_prints_table(self, capsys):
        code = main(["experiment", "e2", "--n", "5", "--t", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Proposition 8.2" in captured.out

    def test_experiment_e6_prints_table(self, capsys):
        code = main(["experiment", "e6", "--n", "4", "--t", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "counterexample" in captured.out

    def test_unknown_experiment_fails(self, capsys):
        code = main(["experiment", "e99"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_registry_covers_every_experiment(self):
        assert set(EXPERIMENTS) == {f"e{i}" for i in range(1, 13)}

    def test_exhaustive_experiments_default_to_their_report_size(self):
        import inspect

        from repro.cli import EXPERIMENT_SIZES
        from repro.experiments import implementation_check, optimality_probe, safety_check

        reports = {"e7": implementation_check.report, "e10": optimality_probe.report,
                   "e11": safety_check.report}
        assert set(EXPERIMENT_SIZES) == set(reports)
        for key, report in reports.items():
            parameters = inspect.signature(report).parameters
            assert EXPERIMENT_SIZES[key] == (parameters["n"].default,
                                             parameters["t"].default), key

    def test_experiment_without_size_flags_uses_its_default(self, capsys):
        assert main(["experiment", "e11"]) == 0
        assert "(n=3, t=1)" in capsys.readouterr().out
        args = build_parser().parse_args(["experiment", "e1"])
        assert (args.n, args.t) == (None, None)


class TestNoBackendFlags:
    """Every command runs in-process: ``--jobs`` and ``--parallel`` are gone."""

    @pytest.mark.parametrize("argv", [["run"], ["experiment", "e4"],
                                      ["failure-models"], ["serve"]],
                             ids=["run", "experiment", "failure-models", "serve"])
    @pytest.mark.parametrize("flag", [["--jobs", "2"], ["--parallel"]],
                             ids=["jobs", "parallel"])
    def test_backend_flags_are_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(argv + flag)
        assert raised.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestListCommand:
    def test_list_prints_everything(self, capsys):
        code = main(["list"])
        captured = capsys.readouterr()
        assert code == 0
        for key in EXPERIMENTS:
            assert key in captured.out
        for protocol in PROTOCOLS:
            assert protocol in captured.out


class TestCacheInspection:
    """``cache stats --json`` (schema-pinned) and ``cache missing``."""

    def test_cache_stats_json_schema(self, tmp_path, capsys):
        """The JSON document is an interface: the service's /stats endpoint
        embeds it and external tooling parses it, so its keys are pinned."""
        import json as json_module
        cache_dir = str(tmp_path / "cache")
        assert main(["cache", "warm", "--n", "3", "--t", "1",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json", "--cache-dir", cache_dir]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert set(payload) == {"location", "entries", "total_bytes",
                                "by_kind", "session"}
        assert set(payload["session"]) == {"hits", "memory_hits", "misses",
                                           "puts", "corrupted", "io_errors"}
        assert payload["location"] == cache_dir
        assert payload["entries"] == 4
        assert payload["by_kind"]["implementation-report"] == 2
        assert payload["total_bytes"] > 0

    def test_service_stats_embeds_the_same_document(self, tmp_path):
        from repro.service import JobServer
        from repro.store import default_store
        store = default_store(tmp_path / "cache")
        stats = JobServer(port=0, workers=1, store=store).describe_stats()
        assert set(stats["store"]) == {"entries", "total_bytes", "by_kind",
                                       "session"}

    def test_cache_missing_cold_then_warm(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["cache", "missing", "--n", "3", "--t", "1",
                     "--cache-dir", cache_dir]) == 1
        out = capsys.readouterr().out
        assert out.count("MISSING") == 2 and "cache warm" in out
        assert main(["cache", "warm", "--n", "3", "--t", "1",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "missing", "--n", "3", "--t", "1",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "MISSING" not in out and "all 2 artifacts cached" in out
        # --safety widens the artifact list; those reports were not warmed.
        assert main(["cache", "missing", "--n", "3", "--t", "1", "--safety",
                     "--cache-dir", cache_dir]) == 1
        out = capsys.readouterr().out
        assert out.count("MISSING") == 2 and out.count("cached ") == 2


class TestSweepResumeMessage:
    """``--cache`` surfaces partial-sweep resumes on stderr (satellite of the
    resumable-sweep machinery; the library itself stays silent)."""

    def _e2_spec(self, n, t):
        """The exact sweep ``experiment e2`` builds at (n, t)."""
        from repro.api import Sweep
        from repro.protocols import BasicProtocol, MinProtocol
        from repro.protocols.popt import OptimalFipProtocol
        from repro.workloads.scenarios import failure_free_scenarios
        labelled = failure_free_scenarios(n)
        return (Sweep.of(MinProtocol(t), BasicProtocol(t), OptimalFipProtocol(t))
                .on([scenario for _, scenario in labelled], n=n).build())

    def test_partial_cache_prints_resume_line(self, tmp_path, capsys):
        from repro.simulation import simulate_tasks
        from repro.store import default_store, run_task_key
        cache_dir = tmp_path / "cache"
        spec = self._e2_spec(3, 1)
        tasks = spec.tasks()
        # Simulate an interrupted sweep: exactly one run already cached.
        store = default_store(cache_dir)
        store.put(run_task_key(tasks[0]), simulate_tasks(tasks[:1])[0], kind="run")
        assert main(["experiment", "e2", "--n", "3", "--t", "1",
                     "--cache-dir", str(cache_dir)]) == 0
        err = capsys.readouterr().err
        assert (f"cache: resuming {len(tasks) - 1} of {len(tasks)} runs "
                "(1 already cached)") in err
        # Now fully warm: the rerun is silent (sweep-level hit, no resume).
        assert main(["experiment", "e2", "--n", "3", "--t", "1",
                     "--cache-dir", str(cache_dir)]) == 0
        assert "cache: resuming" not in capsys.readouterr().err

    def test_cold_and_uncached_runs_print_nothing(self, tmp_path, capsys):
        # Cold store: nothing to resume, no message.
        assert main(["experiment", "e2", "--n", "3", "--t", "1",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "cache: resuming" not in capsys.readouterr().err
        # No store configured: the notifier is never installed.
        assert main(["experiment", "e2", "--n", "3", "--t", "1"]) == 0
        assert "cache: resuming" not in capsys.readouterr().err

    def test_notifier_is_uninstalled_after_the_command(self, tmp_path):
        from repro.obs.bus import BUS
        assert main(["experiment", "e2", "--n", "3", "--t", "1",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        # The bus subscription the command installed is gone.
        assert not BUS.has_subscribers("sweep.resume")
