"""Unit tests for the plain-text reporting helpers."""

from collections import Counter
from dataclasses import replace

from repro.experiments import decision_rounds
from repro.protocols import MinProtocol
from repro.reporting import format_table
from repro.simulation import simulate


class TestFormatTable:
    def test_basic_alignment(self):
        rows = [{"protocol": "P_min", "bits": 25}, {"protocol": "P_basic", "bits": 120}]
        text = format_table(rows, title="bits")
        lines = text.splitlines()
        assert lines[0] == "bits"
        assert "protocol" in lines[2]
        assert "P_min" in text and "P_basic" in text
        # Header and rows have the same width.
        assert len(lines[2]) == len(lines[4])

    def test_missing_keys_render_empty(self):
        rows = [{"a": 1}, {"a": 2, "b": "x"}]
        text = format_table(rows)
        assert "b" in text.splitlines()[0]

    def test_column_order_override(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b", "a"])
        header = text.splitlines()[0]
        assert header.index("b") < header.index("a")

    def test_floats_rendered_compactly(self):
        text = format_table([{"x": 1.5}])
        assert "1.5" in text

    def test_none_renders_blank(self):
        text = format_table([{"x": None, "y": 1}])
        assert "None" not in text


class TestComparisonAndHistogram:
    """The paper-comparison and decision-round-histogram tables the reports print."""

    def test_format_comparison(self):
        measurement = decision_rounds.measure_decision_rounds(4, 1)[0]
        assert measurement.matches_paper
        lines = format_table([measurement.as_row(),
                              replace(measurement, matches_paper=False).as_row()]).splitlines()
        assert lines[0].split()[-1] == "matches"
        assert lines[2].split()[-1] == "True"
        assert lines[3].split()[-1] == "False"

    def test_format_histogram(self):
        traces = [simulate(MinProtocol(1), 4, [0, 1, 1, 1]),
                  simulate(MinProtocol(1), 4, [1, 1, 1, 1])]
        histogram = Counter(trace.decision_round(agent) for trace in traces for agent in range(4))
        text = format_table([{"round": r, "agents": c} for r, c in sorted(histogram.items())])
        lines = text.splitlines()
        assert lines[0].startswith("round")
        assert [line.split()[0] for line in lines[2:]] == ["1", "2", "3"]
        assert lines[-1].split()[-1] == "4"

    def test_empty_histogram(self):
        assert format_table([], columns=["round", "agents"]).splitlines() \
            == ["round | agents", "------+-------"]
