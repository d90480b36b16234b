"""Benchmark — exhaustive model checking: build, implementation, and safety scans.

This times the Theorem 6.5 pipeline at (n=3, t=1) and (n=4, t=1): enumerating
the system ``I_{γ_min, P_min}`` (simulation plus local state interning),
checking that ``P_min`` implements the knowledge-based program ``P0`` over it
(pure bitset model checking), and scanning the Definition 6.2 safety condition
— the last twice: ``check_safety`` ("vector", numpy word-array reductions)
and the per-point oracle :func:`repro.kbp.reference.scan_per_point`
("per-point", the original nested loops), so the vectorization win is
measured, not assumed.  The n=4 system has 32 784 runs /
131 136 points, which is exactly the workload that used to keep the
implementation theorems quarantined behind ``pytest -m slow``.

Reference timings on the development box, for the perf trajectory: with the
pre-PR ``frozenset[Point]`` evaluator the (n=4, t=1) ``check_implements`` pass
took ~6.5 s on a prebuilt system; the bitset core runs it in ~0.13 s (~50×),
with system construction (~5 s per-run, ~0.3 s batched) now carrying the
interning pass.  The n=4 per-point safety scan takes ~12 s; the vectorized
scan ~0.7 s (~17×), which is what put the n=5 scan (~1 min) in reach.

Results land in the standard pytest-benchmark JSON via ``--benchmark-json``,
same as every other file in this directory.
"""

import pytest

from repro.kbp import check_implements, make_p0
from repro.kbp.reference import scan_per_point
from repro.kbp.safety import check_safety
from repro.protocols import MinProtocol
from repro.systems import gamma_min

SIZES = [(3, 1), (4, 1)]

#: The safety-scan strategies benchmarked head to head.
SCANS = ["vector", "per-point"]


@pytest.fixture(scope="module")
def built_systems():
    """Prebuilt systems per size, so the check benchmarks time only checking."""
    return {
        (n, t): gamma_min(n, t).build_system(MinProtocol(t))
        for n, t in SIZES
    }


@pytest.mark.parametrize("size", SIZES, ids=lambda size: f"n{size[0]}_t{size[1]}")
def test_bench_build_system(benchmark, size):
    n, t = size
    context = gamma_min(n, t)
    system = benchmark.pedantic(context.build_system, args=(MinProtocol(t),),
                                rounds=1, iterations=1)
    assert len(system.runs) > 0
    assert system.horizon == t + 2


@pytest.mark.parametrize("size", SIZES, ids=lambda size: f"n{size[0]}_t{size[1]}")
def test_bench_check_implements(benchmark, built_systems, size):
    n, t = size
    context = gamma_min(n, t)
    system = built_systems[size]

    def check():
        return check_implements(MinProtocol(t), make_p0(n), context, system=system)

    report = benchmark.pedantic(check, rounds=1, iterations=1)
    assert report.ok, report.mismatches


@pytest.mark.parametrize("scan", SCANS)
@pytest.mark.parametrize("size", SIZES, ids=lambda size: f"n{size[0]}_t{size[1]}")
def test_bench_check_safety(benchmark, built_systems, size, scan):
    """Def 6.2 safety scan, vectorized vs per-point, on a prebuilt system."""
    n, t = size
    context = gamma_min(n, t)
    system = built_systems[size]

    def check():
        if scan == "vector":
            return check_safety(MinProtocol(t), context, system=system)
        return scan_per_point(MinProtocol(t), context, system)

    report = benchmark.pedantic(check, rounds=1, iterations=1)
    assert report.safe, report.violations
    assert report.points_checked == system.num_points
