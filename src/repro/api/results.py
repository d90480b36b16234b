"""The unified result container produced by executing a :class:`SweepSpec`.

A :class:`ResultSet` holds every protocol's trace on every scenario of a sweep
and plugs directly into the analysis, specification, and reporting layers:

* :meth:`ResultSet.compare` / :meth:`ResultSet.pairwise` feed
  :func:`repro.analysis.compare_traces` (the Section 5 dominance relation);
* :meth:`ResultSet.check_eba` runs :func:`repro.spec.check_eba` over every
  trace;
* :meth:`ResultSet.rows` / :meth:`ResultSet.table` feed
  :func:`repro.reporting.tables.format_table`.

It can be read by protocol or by scenario: ``results["P_min"]`` is the
protocol's trace tuple and ``results.corresponding(i)`` is the scenario's
name→trace mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, TYPE_CHECKING, Tuple

from ..core.errors import ConfigurationError
from ..simulation.trace import RunTrace, Scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.dominance import DominanceResult
    from ..spec.eba import SpecReport


@dataclass(frozen=True)
class ResultSet:
    """The traces of a sweep: every protocol over every scenario, in order.

    ``traces[p][s]`` is the trace of protocol ``protocol_names[p]`` on
    ``scenarios[s]``; column ``s`` across protocols is a family of
    corresponding runs (same initial global state).  Equality is structural,
    so two result sets are equal exactly when every trace matches — the
    property the executor-equivalence guarantee is stated in terms of.
    """

    protocol_names: Tuple[str, ...]
    scenarios: Tuple[Scenario, ...]
    traces: Tuple[Tuple[RunTrace, ...], ...]
    horizon: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.traces) != len(self.protocol_names):
            raise ConfigurationError(
                f"{len(self.protocol_names)} protocols but {len(self.traces)} trace rows"
            )
        for name, row in zip(self.protocol_names, self.traces):
            if len(row) != len(self.scenarios):
                raise ConfigurationError(
                    f"protocol {name!r} has {len(row)} traces for "
                    f"{len(self.scenarios)} scenarios"
                )

    # ------------------------------------------------------------------ access

    def __len__(self) -> int:
        """The number of scenarios (runs per protocol)."""
        return len(self.scenarios)

    def __contains__(self, protocol_name: str) -> bool:
        return protocol_name in self.protocol_names

    def __iter__(self) -> Iterator[str]:
        return iter(self.protocol_names)

    def _index_of(self, protocol_name: str) -> int:
        try:
            return self.protocol_names.index(protocol_name)
        except ValueError:
            raise ConfigurationError(
                f"no protocol {protocol_name!r} in this result set "
                f"(have: {', '.join(self.protocol_names)})"
            ) from None

    def __getitem__(self, protocol_name: str) -> Tuple[RunTrace, ...]:
        """All traces of one protocol, in scenario order."""
        return self.traces[self._index_of(protocol_name)]

    def trace(self, protocol_name: str, scenario_index: int = 0) -> RunTrace:
        """The trace of one protocol on one scenario."""
        return self[protocol_name][scenario_index]

    # ------------------------------------------------------------------ views

    def corresponding(self, scenario_index: int = 0) -> Dict[str, RunTrace]:
        """One scenario's family of corresponding runs (name → trace)."""
        return {name: self.traces[index][scenario_index]
                for index, name in enumerate(self.protocol_names)}

    # ------------------------------------------------------------------ analysis integration

    def compare(self, first: str, second: str) -> "DominanceResult":
        """Dominance comparison of two protocols over the shared workload."""
        from ..analysis.dominance import compare_traces
        return compare_traces(self[first], self[second])

    def pairwise(self) -> Dict[Tuple[str, str], "DominanceResult"]:
        """All pairwise dominance results, keyed by ``(first, second)`` protocol name."""
        from ..analysis.dominance import compare_traces
        results: Dict[Tuple[str, str], "DominanceResult"] = {}
        for i, first in enumerate(self.protocol_names):
            for second in self.protocol_names[i + 1:]:
                results[(first, second)] = compare_traces(self[first], self[second])
        return results

    # ------------------------------------------------------------------ spec integration

    def check_eba(self, deadline: Optional[int] = None,
                  validity_for_faulty: bool = False) -> Dict[str, Tuple["SpecReport", ...]]:
        """Run the EBA specification checker over every trace."""
        from ..spec.eba import check_eba
        return {
            name: tuple(check_eba(trace, deadline=deadline,
                                  validity_for_faulty=validity_for_faulty)
                        for trace in self[name])
            for name in self.protocol_names
        }

    def spec_violations(self, deadline: Optional[int] = None,
                        validity_for_faulty: bool = False) -> Dict[str, int]:
        """Per-protocol count of scenarios whose trace violates the EBA spec."""
        return {
            name: sum(1 for report in reports if not report.ok)
            for name, reports in self.check_eba(
                deadline=deadline, validity_for_faulty=validity_for_faulty).items()
        }

    # ------------------------------------------------------------------ reporting integration

    def rows(self) -> List[Dict[str, object]]:
        """One reporting row per (protocol, scenario) pair, for ``format_table``."""
        rows: List[Dict[str, object]] = []
        for name in self.protocol_names:
            for index, trace in enumerate(self[name]):
                last = trace.last_decision_round(nonfaulty_only=True)
                values = {trace.decision_value(agent) for agent in trace.nonfaulty}
                values.discard(None)
                if not values:
                    value = "undecided"
                elif len(values) == 1:
                    value = values.pop()
                else:
                    value = "split"
                rows.append({
                    "protocol": name,
                    "scenario": index,
                    "adversary": trace.pattern.describe(),
                    "nonfaulty decide by": last if last is not None else "",
                    "value": value,
                })
        return rows

    def table(self, title: Optional[str] = None) -> str:
        """Render :meth:`rows` as an aligned plain-text table."""
        from ..reporting.tables import format_table
        return format_table(self.rows(), title=title)

    # ------------------------------------------------------------------ cosmetics

    def summary(self) -> str:
        """A one-line description of the result set."""
        return (f"ResultSet({len(self.protocol_names)} protocols x "
                f"{len(self.scenarios)} scenarios: "
                f"{', '.join(self.protocol_names)})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.summary()
