"""Seeded API violation: a dropped executor."""


def measure_everything(tasks, executor=None):
    results = []
    for task in tasks:
        # API002: executor accepted above but not forwarded
        results.append(run_measurement(task))
    return results


def run_measurement(task, executor=None):
    return task
