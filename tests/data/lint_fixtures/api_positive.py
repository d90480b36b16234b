"""Seeded API violations: deprecated shims and a dropped executor."""

from repro.simulation.runner import run_batch, simulate


def legacy_run(protocol, n, preferences, pattern):
    # API001: deprecated shim call (resolved through the import)
    return simulate(protocol, n, preferences, pattern)


def legacy_batch(protocol, n, scenarios):
    # API001: another deprecated entry point
    return run_batch(protocol, n, scenarios)


def measure_everything(tasks, executor=None):
    results = []
    for task in tasks:
        # API002: executor accepted above but not forwarded
        results.append(run_measurement(task))
    return results


def run_measurement(task, executor=None):
    return task
