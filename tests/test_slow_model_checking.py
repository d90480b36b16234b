"""Heavier exhaustive model-checking runs at n = 4 and n = 5 (marked slow).

Run them with ``pytest -m slow`` (CI runs them on a schedule and on manual
dispatch).  The Theorem 6.5 / 6.6 implementation checks at n = 4 used to live
here; the bitset model-checking core made them fast enough for tier-1, so they
moved to ``test_model_checking_n4.py``.  The tier now covers, at n = 5
(655 392-run / 2 621 568-point systems that the batched round-major
construction engine made reachable at all):

* **Theorem 6.5** — ``P_min`` implements ``P0`` in γ_min(5, 1), with a
  peak-memory guard on the build;
* **Theorem 6.6** — ``P_basic`` implements ``P0`` in γ_basic(5, 1); and
* the **Definition 6.2 safety condition** for both canonical
  implementations, via the vectorized word-array scan of ``check_safety``
  — the per-point oracle extrapolates to hours at this size, the vectorized
  scan takes a few seconds after the build.  The receipt kernel's parity
  with its oracle at n = 4 and n = 5 is in ``test_kbp_safety.py``.

It checks **Theorem A.21** — ``P_opt`` implements ``P1`` in γ_fip(n, 1), the
paper's headline full-information claim — at n = 4, with a peak-memory guard,
and at n = 5.  The n = 4 remainder (program equivalence over both limited
contexts, the safety condition against its per-point oracle) and the n = 3
general-omission theorem table round out the tier, with two ≥ 5× speed gates:
a warm store against a cold one, and the batched build against the per-run
oracle.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.kbp import check_implements, make_p0, make_p1, programs_equivalent
from repro.kbp.reference import scan_per_point
from repro.kbp.safety import check_safety
from repro.protocols import BasicProtocol, MinProtocol
from repro.simulation.engine import simulate
from repro.store import default_store
from repro.systems import InterpretedSystem, gamma_basic, gamma_min
from repro.workloads.preferences import enumerate_preferences

pytestmark = pytest.mark.slow


class TestSection7EquivalenceAtN4:
    def test_p1_equivalent_to_p0_in_gamma_min_4_1(self):
        system = gamma_min(4, 1).build_system(MinProtocol(1))
        assert programs_equivalent(make_p0(4), make_p1(4, 1), system)

    def test_p1_equivalent_to_p0_in_gamma_basic_4_1(self):
        system = gamma_basic(4, 1).build_system(BasicProtocol(1))
        assert programs_equivalent(make_p0(4), make_p1(4, 1), system)


#: Peak-RSS ceiling for the n = 4 Theorem A.21 check in a fresh process.
A21_N4_PEAK_RSS_MB = 300

#: Peak-RSS ceiling for the n = 5 γ_min build in a fresh process.  Cyclic GC
#: is paused during builds, so this also catches garbage piling up meanwhile.
GAMMA_MIN_N5_BUILD_PEAK_RSS_MB = 280

#: Peak-RSS ceiling for decoding the stored n = 5 γ_min system in a fresh
#: process.  The system holds its runs only as its run table, so the decode
#: builds no trace: ~117 MB in 3 runs on a 2-vCPU container, ~318 MB when
#: every run was decoded into a trace.
GAMMA_MIN_N5_DECODE_PEAK_RSS_MB = 150

#: Appended to a script to print the process's own peak RSS in kB.  ``VmHWM``
#: belongs to the address space, which ``exec`` replaces; ``ru_maxrss`` would
#: instead carry over the high-water mark of the test process that spawned it.
_PRINT_PEAK_RSS = """
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def _peak_rss_mb(script):
    """Run ``script`` in a fresh interpreter, imports included; its peak RSS in MB."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads the peak RSS from /proc (Linux)")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path)
    proc = subprocess.run([sys.executable, "-c", script + _PRINT_PEAK_RSS], env=env,
                          capture_output=True, text=True, check=True)
    return int(proc.stdout.split()[-1]) / 1024


class TestTheoremA21AtN4:
    """Theorem A.21 over the full γ_fip system at n = 4, t = 1 (3 464 local states).

    On a 2-vCPU container the build and check take ~2.8 s at ~117 MB peak RSS
    (fresh process, imports included).
    """

    def test_p_opt_implements_p1_in_gamma_fip_4_1(self):
        from repro.experiments.implementation_check import check_theorem

        report = check_theorem("a21", 4, 1)
        assert report.ok, report.mismatches
        assert report.checked_states == 3_464

    def test_peak_rss_stays_under_300_mb(self):
        """The whole check, imports included, in its own process."""
        peak_mb = _peak_rss_mb(
            "from repro.experiments.implementation_check import check_theorem\n"
            "assert check_theorem('a21', 4, 1).ok\n")
        assert peak_mb <= A21_N4_PEAK_RSS_MB, f"peak RSS {peak_mb:.0f} MB"


class TestTheoremA21AtN5:
    """Theorem A.21 over the full γ_fip system at n = 5, t = 1 (22 570 local states).

    The largest full-information check in the repo; the system holds 655 392
    runs (2 621 568 points).  On a 2-vCPU container the build and check take
    ~51 s, at ~1.55 GB peak RSS (fresh process, imports included).
    """

    def test_p_opt_implements_p1_in_gamma_fip_5_1(self):
        from repro.experiments.implementation_check import check_theorem

        report = check_theorem("a21", 5, 1)
        assert report.ok, report.mismatches
        assert report.checked_states == 22_570


class TestSafetyConditionAtN4:
    def test_p0_safe_in_gamma_min_4_1(self):
        """The vectorized scan and its per-point oracle (~20 s on 2 vCPUs) agree."""
        context = gamma_min(4, 1)
        system = context.build_system(MinProtocol(1))
        report = check_safety(MinProtocol(1), context, system=system)
        assert report.safe, report.violations
        oracle = scan_per_point(MinProtocol(1), context, system)
        assert oracle.safe, oracle.violations
        assert report.points_checked == oracle.points_checked == system.num_points
        assert report.clause1_checks == oracle.clause1_checks
        assert report.clause2_checks == oracle.clause2_checks

    def test_p0_safe_in_gamma_basic_4_1(self):
        report = check_safety(BasicProtocol(1), gamma_basic(4, 1))
        assert report.safe, report.violations


class TestTheorem65AtN5:
    """Theorem 6.5 over the full γ_min system at n = 5, t = 1.

    The largest exhaustive check in the repo: 20 481 SO(1) patterns × 32
    preference vectors = 655 392 runs (2 621 568 points).  On a 2-vCPU
    container the batched build takes ~2.8 s in a fresh process, imports
    included, and peaks at ~270 MB; the per-run engine's sequential
    simulate() loop takes ~5-7 s at n = 4 alone, and historically n = 4 was
    the practical ceiling.
    """

    def test_build_peak_rss_stays_under_280_mb(self):
        """The build alone, imports included, in its own process."""
        peak_mb = _peak_rss_mb(
            "from repro.protocols import MinProtocol\n"
            "from repro.systems import gamma_min\n"
            "assert len(gamma_min(5, 1).build_system(MinProtocol(1)).runs) == 655_392\n")
        assert peak_mb <= GAMMA_MIN_N5_BUILD_PEAK_RSS_MB, f"peak RSS {peak_mb:.0f} MB"

    def test_decode_peak_rss_stays_under_150_mb(self, tmp_path):
        """Decoding the stored system, imports included, in its own process."""
        from repro.store import store

        stored = tmp_path / "gamma_min_5_1.system"
        stored.write_bytes(store._encode(gamma_min(5, 1).build_system(MinProtocol(1)),
                                         "system"))
        peak_mb = _peak_rss_mb(
            "from pathlib import Path\n"
            "from repro.store import store\n"
            f"system = store._decode(Path({str(stored)!r}).read_bytes())\n"
            "assert len(system.runs) == 655_392\n")
        assert peak_mb <= GAMMA_MIN_N5_DECODE_PEAK_RSS_MB, f"peak RSS {peak_mb:.0f} MB"

    def test_p_min_implements_p0_in_gamma_min_5_1(self):
        context = gamma_min(5, 1)
        system = context.build_system(MinProtocol(1))
        assert len(system.runs) == 655_392
        report = check_implements(MinProtocol(1), make_p0(5), context, system=system)
        assert report.ok, report.mismatches
        assert report.checked_states > 0


class TestTheorem66AtN5:
    """Theorem 6.6 over the full γ_basic system at n = 5, t = 1.

    Open until the word-array model-checker backend landed: the check anchors
    one ``K_i`` evaluation per interned class, and the vectorized class-mask
    sweeps bring the whole check (build + guard evaluation over 655 392 runs)
    to under a minute on the development container.
    """

    def test_p_basic_implements_p0_in_gamma_basic_5_1(self):
        context = gamma_basic(5, 1)
        system = context.build_system(BasicProtocol(1))
        assert len(system.runs) == 655_392
        report = check_implements(BasicProtocol(1), make_p0(5), context, system=system)
        assert report.ok, report.mismatches
        assert report.checked_states > 0


class TestSafetyConditionAtN5:
    """The Definition 6.2 safety scan at n = 5, t = 1 (Proposition 6.4's regime).

    Open until the vectorized scan landed: the per-point oracle walks 2.6M
    points × 5 agents through nested class sweeps (extrapolating to hours),
    while the word-array scan reduces each clause to shift pipelines and
    per-class ``bincount`` reductions over the whole system at once.
    """

    def test_p0_safe_in_gamma_min_5_1(self):
        report = check_safety(MinProtocol(1), gamma_min(5, 1))
        assert report.safe, report.violations
        assert report.points_checked == 2_621_568

    def test_p0_safe_in_gamma_basic_5_1(self):
        report = check_safety(BasicProtocol(1), gamma_basic(5, 1))
        assert report.safe, report.violations
        assert report.points_checked == 2_621_568


class TestGeneralOmissionTheoremsAtN3:
    """The GO(1) halves of experiment E12's theorem table (98 312-run system)."""

    def test_6_5_holds_and_6_6_breaks_under_general_omissions(self):
        from repro.experiments.failure_model_comparison import check_theorems

        rows = check_theorems("general-omission", n=3, t=1)
        by_claim = {row.claim: row for row in rows}
        assert by_claim["Theorem 6.5: P_min implements P0"].holds
        basic = by_claim["Theorem 6.6: P_basic implements P0"]
        assert not basic.holds
        assert basic.mismatches > 0


#: The floor of both speed gates below.
MIN_SPEEDUP = 5.0


def _timed(call):
    """``(result, seconds)`` for one call."""
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


class TestStoreSpeedup:
    """A warm-store Theorem 6.5 check is ≥ 5× faster than the cold one that filled it.

    On a 2-vCPU container the ratio is ~50× at n = 3 and ~200× at n = 4.
    """

    @pytest.mark.parametrize("n", [3, 4])
    def test_warm_check_implements_is_5x_faster_and_identical(self, tmp_path, n):
        def check():
            # A fresh handle per call keeps the in-memory LRU out of the warm
            # timings: key hashing, one disk read, one unpickle.
            return check_implements(MinProtocol(1), make_p0(n), gamma_min(n, 1),
                                    store=default_store(tmp_path))

        cold, cold_seconds = _timed(check)
        assert cold.ok, cold.mismatches
        warm_runs = [_timed(check) for _ in range(5)]
        warm_seconds = sum(seconds for _report, seconds in warm_runs) / len(warm_runs)
        for warm, _seconds in warm_runs:
            assert warm.ok
            assert repr(warm) == repr(cold)
        assert cold_seconds >= MIN_SPEEDUP * warm_seconds, (
            f"warm {warm_seconds:.4f}s vs cold {cold_seconds:.4f}s")


class TestBatchedBuildSpeedup:
    """The batched γ_min(4, 1) build is ≥ 5× faster than the per-run oracle.

    The oracle is one ``simulate()`` call per run, interned like a built
    system so both sides do the same work.  On a 2-vCPU container it takes
    ~8 s against ~0.14 s batched.
    """

    def test_batched_build_is_5x_faster_than_per_run_at_n4(self):
        n, protocol = 4, MinProtocol(1)

        def per_run():
            context = gamma_min(n, 1)
            prefs = [tuple(p) for p in enumerate_preferences(n)]
            runs = [simulate(protocol, n, p, pattern=pattern, horizon=context.horizon)
                    for pattern in context.patterns() for p in prefs]
            system = InterpretedSystem(n=n, horizon=context.horizon, runs=runs,
                                       protocol_name=protocol.name)
            system.intern_states()
            return system

        oracle, per_run_seconds = _timed(per_run)
        batched_runs = [_timed(lambda: gamma_min(n, 1).build_system(protocol))
                        for _ in range(3)]
        batched_seconds = sum(seconds for _system, seconds in batched_runs) / len(batched_runs)
        assert len(batched_runs[0][0].runs) == len(oracle.runs)
        assert per_run_seconds >= MIN_SPEEDUP * batched_seconds, (
            f"batched {batched_seconds:.2f}s vs per-run {per_run_seconds:.2f}s")
