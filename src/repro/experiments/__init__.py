"""Experiment drivers: one module per reproduced result of the paper.

| Id | Paper result | Module |
|----|--------------|--------|
| E1 | Proposition 8.1 (bits per run)                  | :mod:`repro.experiments.message_complexity` |
| E2 | Proposition 8.2 (failure-free decision rounds)  | :mod:`repro.experiments.decision_rounds` |
| E3 | Example 7.1 (FIP advantage under failures)      | :mod:`repro.experiments.example_7_1` |
| E4 | Corollaries 6.7 / 7.8 (dominance/optimality)    | :mod:`repro.experiments.dominance_study` |
| E5 | Proposition 6.1 (termination by round t+2)      | :mod:`repro.experiments.termination_bound` |
| E6 | Introduction counterexample (naive 0-bias)      | :mod:`repro.experiments.agreement_violation` |
| E7 | Theorems 6.5 / 6.6 (implementation of ``P0``)   | :mod:`repro.experiments.implementation_check` |
| E8 | Section 8 discussion (limited exchange vs FIP)  | :mod:`repro.experiments.fip_gap` |
| E9 | Crash vs omission failures (0-bias ablation)    | :mod:`repro.experiments.crash_comparison` |
| E10| Optimality probe (one-step deviations)          | :mod:`repro.experiments.optimality_probe` |
| E11| Proposition 6.4 (the Definition 6.2 safety condition) | :mod:`repro.experiments.safety_check` |
| E12| Failure-model comparison (SO vs RO vs GO)       | :mod:`repro.experiments.failure_model_comparison` |

Each module exposes ``measure``-style functions returning structured rows and a
``report()`` function rendering a plain-text table; the CLI and the example
scripts in ``examples/`` are thin wrappers around these drivers.
"""

from . import (
    agreement_violation,
    crash_comparison,
    decision_rounds,
    dominance_study,
    example_7_1,
    failure_model_comparison,
    fip_gap,
    implementation_check,
    message_complexity,
    optimality_probe,
    safety_check,
    termination_bound,
)

__all__ = [
    "agreement_violation",
    "crash_comparison",
    "decision_rounds",
    "dominance_study",
    "example_7_1",
    "failure_model_comparison",
    "fip_gap",
    "implementation_check",
    "message_complexity",
    "optimality_probe",
    "safety_check",
    "termination_bound",
]
