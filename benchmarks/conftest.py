"""Shared configuration for the pytest-benchmark suites in ``benchmarks/``.

Each ``bench_*.py`` file regenerates one of the paper's quantitative results
or one of the library's performance claims (docs/performance.md quotes the
measured values).  The benchmarks assert the qualitative *shape* of each claim
— who wins and by roughly what factor — and time the code that produces it.
This file adds one hook: the per-session dump ``tools/bench_summary.py`` reads.
"""

import json
import os


def pytest_sessionfinish(session, exitstatus):
    """Dump the session's peak RSS and metrics snapshot for bench_summary.

    ``tools/bench_summary.py`` runs each suite as its own pytest process with
    ``REPRO_OBS_DUMP`` pointing at a temp file; recording here (inside the
    measured process, after every benchmark ran) is what makes the numbers
    attributable to one suite.
    """
    dump_path = os.environ.get("REPRO_OBS_DUMP")
    if not dump_path:
        return
    import resource

    from repro.obs.metrics import REGISTRY

    payload = {
        # Linux reports ru_maxrss in KiB (macOS in bytes; the consumer only
        # compares like with like, so the unit just travels with the key).
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "metrics": REGISTRY.snapshot(),
    }
    try:
        with open(dump_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
    except OSError:
        pass
