"""Compliant API usage — nothing may fire here."""


def measure_everything(tasks, executor=None):
    results = []
    for task in tasks:
        results.append(run_measurement(task, executor=executor))
    return results


def measure_positionally(tasks, executor=None):
    return [run_measurement(task, executor) for task in tasks]


def run_measurement(task, executor=None):
    return task
