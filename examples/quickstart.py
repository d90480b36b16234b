#!/usr/bin/env python3
"""Quickstart: run the paper's protocols on a small omission-failure scenario.

This script walks through the library's core workflow on the ``repro.api``
orchestration layer:

1. describe the run declaratively: an action protocol (``P_min``, ``P_basic``,
   or ``P_opt`` — each brings its own information-exchange protocol), the
   initial preferences, and a failure pattern (the adversary);
2. execute the spec — a single :class:`repro.api.RunSpec`, or a
   :class:`repro.api.Sweep` over all three protocols at once;
3. inspect the traces and check the EBA specification.

Run it with:  ``python examples/quickstart.py``
"""

from repro import (
    BasicProtocol,
    FailurePattern,
    MinProtocol,
    OptimalFipProtocol,
    Sweep,
    check_eba,
)
from repro.analysis import zero_chains


def main() -> None:
    n, t = 6, 2

    # Scenario: agent 5 prefers 0, everyone else prefers 1.  Agent 0 is faulty
    # and drops all of its round-1 and round-2 messages except the one to agent 1.
    preferences = (1, 1, 1, 1, 1, 0)
    pattern = FailurePattern.from_blocked(
        n,
        blocked=[(r, 0, j) for r in (0, 1) for j in range(n) if j not in (0, 1)],
    )
    print("Scenario:", pattern.describe(), "| preferences:", list(preferences))
    print()

    # One sweep executes all three protocols on the same initial global state
    # (corresponding runs).  Pass store=... to cache the runs across calls.
    results = (Sweep.of(MinProtocol(t), BasicProtocol(t), OptimalFipProtocol(t))
               .on([(preferences, pattern)])
               .run())

    for name in results:
        trace = results.trace(name)
        report = check_eba(trace, deadline=t + 2)
        print(f"--- {name} over {trace.exchange_name} ---")
        print("decisions:", {agent: (trace.decision_round(agent), trace.decision_value(agent))
                             for agent in range(n)})
        print("bits sent:", trace.total_bits(), "| messages:", trace.total_messages())
        print("0-chains :", zero_chains(trace))
        print("EBA spec :", "OK" if report.ok else report.violations())
        print()

    # The result set also drives the dominance analysis directly:
    print(results.compare("P_opt", "P_min").summary())


if __name__ == "__main__":
    main()
