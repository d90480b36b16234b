"""Unit tests for trace metrics and aggregation."""

import math

import pytest

from repro.analysis import (
    aggregate_metrics,
    decision_round_histogram,
    last_nonfaulty_decision_round,
    nonfaulty_decision_rounds,
    run_metrics,
)
from repro.api import Sweep
from repro.failures import FailurePattern
from repro.protocols import BasicProtocol, MinProtocol
from repro.simulation import simulate
from repro.workloads import all_ones, random_scenarios


class TestRunMetrics:
    def test_basic_fields(self):
        trace = simulate(MinProtocol(1), 4, [0, 1, 1, 1])
        metrics = run_metrics(trace)
        assert metrics.protocol_name == "P_min"
        assert metrics.n == 4
        assert metrics.num_faulty == 0
        assert metrics.total_bits == 16
        assert metrics.decision_rounds[0] == 1
        assert metrics.decision_values[2] == 0
        assert metrics.last_nonfaulty_decision_round == 2
        assert metrics.earliest_decision_round == 1

    def test_metrics_with_faulty_agents(self):
        pattern = FailurePattern.silent(4, faulty=[0], horizon=4)
        trace = simulate(MinProtocol(1), 4, all_ones(4), pattern)
        metrics = run_metrics(trace)
        assert metrics.num_faulty == 1
        assert metrics.last_nonfaulty_decision_round == 3

    def test_nonfaulty_round_helpers(self):
        pattern = FailurePattern.silent(4, faulty=[0], horizon=4)
        trace = simulate(MinProtocol(1), 4, all_ones(4), pattern)
        assert nonfaulty_decision_rounds(trace) == [3, 3, 3]
        assert last_nonfaulty_decision_round(trace) == 3


class TestAggregation:
    def test_aggregate_over_batch(self):
        scenarios = random_scenarios(4, 1, count=6, seed=2)
        traces = Sweep.of(MinProtocol(1)).on(scenarios, n=4).run()["P_min"]
        aggregate = aggregate_metrics(list(traces))
        assert aggregate.runs == 6
        assert aggregate.protocol_name == "P_min"
        assert aggregate.max_last_decision_round <= 3
        assert not math.isnan(aggregate.mean_decision_round)
        row = aggregate.as_row()
        assert row["protocol"] == "P_min"
        assert row["runs"] == 6

    def test_aggregate_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate_metrics([])

    def test_aggregate_rejects_mixed_protocols(self):
        a = simulate(MinProtocol(1), 4, [0, 1, 1, 1])
        b = simulate(BasicProtocol(1), 4, [0, 1, 1, 1])
        with pytest.raises(ValueError):
            aggregate_metrics([a, b])


class TestHistogram:
    def test_histogram_counts_rounds(self):
        traces = [simulate(MinProtocol(1), 4, [0, 1, 1, 1]),
                  simulate(MinProtocol(1), 4, all_ones(4))]
        histogram = decision_round_histogram(traces)
        assert histogram[1] == 1     # the init-0 agent
        assert histogram[2] == 3     # the other agents in the first run
        assert histogram[3] == 4     # the all-ones run decides at t + 2 = 3
        assert list(histogram) == sorted(histogram)
