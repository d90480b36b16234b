"""Trace analysis: 0-chains, dominance comparisons and the optimality probe."""

from .chains import (
    ZeroChain,
    longest_zero_chain,
    zero_chains,
    zero_deciders_by_round,
)
from .dominance import (
    DominanceCounterexample,
    DominanceResult,
    compare_traces,
)
from .optimality import (
    DeviationOutcome,
    OptimalityProbeReport,
    context_scenarios,
    probe_optimality,
)

__all__ = [
    "DeviationOutcome",
    "DominanceCounterexample",
    "DominanceResult",
    "OptimalityProbeReport",
    "context_scenarios",
    "probe_optimality",
    "ZeroChain",
    "compare_traces",
    "longest_zero_chain",
    "zero_chains",
    "zero_deciders_by_round",
]
