"""Workload generators: preference vectors and named scenarios."""

from .preferences import (
    SeedLike,
    all_ones,
    all_zeros,
    enumerate_preferences,
    random_preferences,
    resolve_rng,
    single_zero,
)
from .scenarios import (
    example_7_1,
    failure_free_scenarios,
    hidden_chain_scenario,
    intro_counterexample,
    mixed_chain_scenario,
    partition_scenario,
    random_model_scenarios,
    random_scenarios,
    silent_fault_sweep,
    silent_receiver_scenario,
)

__all__ = [
    "SeedLike",
    "all_ones",
    "all_zeros",
    "enumerate_preferences",
    "example_7_1",
    "failure_free_scenarios",
    "hidden_chain_scenario",
    "intro_counterexample",
    "mixed_chain_scenario",
    "partition_scenario",
    "random_model_scenarios",
    "random_preferences",
    "random_scenarios",
    "resolve_rng",
    "silent_fault_sweep",
    "silent_receiver_scenario",
    "single_zero",
]
