"""Benchmark — batched vs per-run cold system construction.

The acceptance bar for the batched round-major engine
(:mod:`repro.simulation.batch`) is quantitative: a cold ``build_system`` of the
full ``γ_min`` system at (n=4, t=1) — no artifact store, nothing warm — must be
at least **5× faster** batched than per-run, with byte-identical traces.  This
file measures exactly that, at (n=3, t=1) and (n=4, t=1):

* ``per_run`` — the naive oracle: one ``simulate()`` call per
  (pattern, preference-vector) pair, exchange constructed per run, wrapped in
  an ``InterpretedSystem`` that interns its local states lazily;
* ``batched`` — ``build_system``: all runs advance together one round at a
  time, sharing ``act``/``messages_for`` per distinct local state and whole
  round transitions per distinct (global state, blocked-edge set) class, with
  the agent partitions emitted during construction.

The batched/per-run ratio at n=4 is asserted (≥ 5×; in practice ~15–20× on
the development container), and so is per-trace byte identity at n=3, making
this benchmark double as the acceptance check — the same pattern as
``bench_store.py``.  ``tools/bench_summary.py`` includes this file in the
canonical ``BENCH_<date>.json``.

Reference numbers on the development container (1 core): per-run cold build
≈ 0.13 s at n=3 and ≈ 5.3 s at n=4; batched ≈ 0.02 s and ≈ 0.31 s (~17×).
"""

import pickle

import pytest

from repro.protocols import MinProtocol
from repro.simulation.engine import simulate
from repro.systems import InterpretedSystem, gamma_min
from repro.workloads.preferences import enumerate_preferences

SIZES = [(3, 1), (4, 1)]

#: The acceptance-criterion floor for the batched/per-run build speedup at n=4.
MIN_SPEEDUP = 5.0

#: Cold per-run timings, recorded by test_bench_per_run_build and consumed by
#: the speedup assertion in test_bench_batched_build (pytest runs this module's
#: tests in definition order).
_PER_RUN_SECONDS = {}


def _build_batched(n, t):
    return gamma_min(n, t).build_system(MinProtocol(t))


def _build_per_run(n, t):
    """The construction oracle, interned like a built system so both sides do the same work."""
    context, protocol = gamma_min(n, t), MinProtocol(t)
    prefs = [tuple(p) for p in enumerate_preferences(n)]
    runs = [simulate(protocol, n, p, pattern=pattern, horizon=context.horizon)
            for pattern in context.patterns() for p in prefs]
    system = InterpretedSystem(n=n, horizon=context.horizon, runs=runs,
                               protocol_name=protocol.name)
    system.intern_states()
    return system


@pytest.mark.parametrize("size", SIZES, ids=lambda size: f"n{size[0]}_t{size[1]}")
def test_bench_per_run_build(benchmark, size):
    """The oracle: one simulate() call per run."""
    n, t = size
    system = benchmark.pedantic(lambda: _build_per_run(n, t), rounds=1, iterations=1)
    _PER_RUN_SECONDS[size] = benchmark.stats.stats.mean
    assert len(system.runs) > 0


@pytest.mark.parametrize("size", SIZES, ids=lambda size: f"n{size[0]}_t{size[1]}")
def test_bench_batched_build(benchmark, size):
    """The batched engine, asserted ≥ 5× faster at n=4 and byte-identical at n=3."""
    n, t = size
    system = benchmark.pedantic(lambda: _build_batched(n, t),
                                rounds=3, iterations=1)
    batched_seconds = benchmark.stats.stats.mean
    per_run_seconds = _PER_RUN_SECONDS.get(size)
    assert per_run_seconds is not None, "per-run benchmark must run first"
    if n == 3:
        reference = _build_per_run(n, t)
        assert len(system.runs) == len(reference.runs)
        for batched_trace, per_run_trace in zip(system.runs, reference.runs):
            assert pickle.dumps(batched_trace) == pickle.dumps(per_run_trace)
    if n >= 4:
        speedup = per_run_seconds / batched_seconds
        assert speedup >= MIN_SPEEDUP, (
            f"batched build_system at n={n} is only {speedup:.1f}x faster than "
            f"per-run ({batched_seconds:.2f}s vs {per_run_seconds:.2f}s); the "
            f"batched engine promises >= {MIN_SPEEDUP}x"
        )
