"""Unit tests for the run metrics Section 8 measures, read off traces and result sets.

Bits sent (Proposition 8.1) and first-decision rounds (Proposition 8.2,
Example 7.1) come from :class:`~repro.simulation.trace.RunTrace`; batches of
runs are summarised by :class:`~repro.api.ResultSet`.
"""

from collections import Counter

import pytest

from repro.api import Sweep
from repro.core.errors import ConfigurationError
from repro.failures import FailurePattern
from repro.protocols import BasicProtocol, MinProtocol
from repro.simulation import simulate
from repro.workloads import all_ones, random_scenarios


class TestRunMetrics:
    def test_basic_fields(self):
        trace = simulate(MinProtocol(1), 4, [0, 1, 1, 1])
        assert trace.protocol_name == "P_min"
        assert trace.n == 4
        assert trace.pattern.num_faulty == 0
        assert trace.total_bits() == 16
        assert trace.decision_round(0) == 1
        assert trace.decision_value(2) == 0
        assert trace.last_decision_round(nonfaulty_only=True) == 2
        assert min(trace.decision_round(agent) for agent in range(4)) == 1

    def test_metrics_with_faulty_agents(self):
        pattern = FailurePattern.silent(4, faulty=[0], horizon=4)
        trace = simulate(MinProtocol(1), 4, all_ones(4), pattern)
        assert trace.pattern.num_faulty == 1
        assert trace.last_decision_round(nonfaulty_only=True) == 3

    def test_nonfaulty_round_helpers(self):
        pattern = FailurePattern.silent(4, faulty=[0], horizon=4)
        trace = simulate(MinProtocol(1), 4, all_ones(4), pattern)
        assert [trace.decision_round(agent) for agent in sorted(trace.nonfaulty)] == [3, 3, 3]
        assert trace.last_decision_round(nonfaulty_only=True) == 3


class TestAggregation:
    def test_aggregate_over_batch(self):
        scenarios = random_scenarios(4, 1, count=6, seed=2)
        results = Sweep.of(MinProtocol(1)).on(scenarios, n=4).run()
        rows = results.rows()
        assert len(rows) == 6
        assert {row["protocol"] for row in rows} == {"P_min"}
        assert max(row["nonfaulty decide by"] for row in rows) <= 3
        assert results.spec_violations() == {"P_min": 0}

    def test_aggregate_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            Sweep.of(MinProtocol(1)).on([]).build()

    def test_aggregate_rejects_mixed_protocols(self):
        scenario = ((0, 1, 1, 1), FailurePattern.failure_free(4))
        results = Sweep.of(MinProtocol(1), BasicProtocol(1)).on([scenario]).run()
        assert [trace.protocol_name for trace in results["P_min"]] == ["P_min"]
        assert [trace.protocol_name for trace in results["P_basic"]] == ["P_basic"]
        with pytest.raises(ConfigurationError):
            results["P_opt"]


class TestHistogram:
    def test_histogram_counts_rounds(self):
        traces = [simulate(MinProtocol(1), 4, [0, 1, 1, 1]),
                  simulate(MinProtocol(1), 4, all_ones(4))]
        histogram = Counter(trace.decision_round(agent)
                            for trace in traces for agent in sorted(trace.nonfaulty))
        assert histogram[1] == 1     # the init-0 agent
        assert histogram[2] == 3     # the other agents in the first run
        assert histogram[3] == 4     # the all-ones run decides at t + 2 = 3
        assert sum(histogram.values()) == 8
