"""A fixed probe of the host's current speed, used to scale timings to a reference host.

The machines this benchmark runs on are shared: a fixed computation slows by
30-70% for stretches of a few seconds to minutes while another tenant is
busy, and the hypervisor reports none of it as stolen time.  A timed sample
of work that runs in the benchmark's own process is therefore taken through a
:class:`Clock`, which brackets it by :func:`probe` calls and reports it scaled
by :func:`scale`: the sample's raw seconds times ``REFERENCE_PROBE_S`` over the
probe's time around it, i.e. the seconds it would have taken on a host where
the probe takes ``REFERENCE_PROBE_S``.  Fast and slow phases alternate within
seconds, so a workload brackets units of a fraction of a second to ten
seconds (a warm block, a cold claim, a theorem check, a scan, a service
pass), not a whole pass: over 23 models-jobs2 passes, whole-pass times spread
(IQR/median) 0.173 raw and 0.166 scaled, while the 38 scans in them, each
bracketed on its own, spread 0.237 raw and 0.172 scaled.

The probe mixes the kinds of work the program does (dict inserts with tuple
and string values, a sort of Python objects, a numpy integer sort), so a slow
phase stretches it about as much as it stretches the program.  Each vCPU
slows on its own, so the probe runs on every CPU the process may use and
reports the time at their mean speed; a serial workload pins itself to one
CPU, so the probe reads the CPU its work ran on (warm claim blocks spread
0.43 raw, 0.32 scaled by both CPUs' mean, 0.14 pinned and scaled by that CPU).
The probe runs only the benchmark's own code, so a change to the program
moves the scaled timings in full.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy

#: Probe seconds on the reference host (a shared 2-vCPU Xeon at 2.1 GHz, where
#: the probe reads 0.012-0.020 s); scaled timings are seconds on that host.
REFERENCE_PROBE_S = 0.015
#: Probe repetitions per CPU; the median discards a single interrupted one.
REPEATS = 3


def _mixed_work() -> int:
    table = {}
    for i in range(30_000):
        table[(i * 7919) % 10_007] = (i, str(i))
    ordered = sorted(table.items())
    values = numpy.random.default_rng(1).integers(0, 1 << 30, size=100_000)
    values.sort()
    return len(ordered) + int(values[0])


def probe() -> float:
    """Seconds the fixed mixed computation takes right now at the mean speed of
    this process's CPUs (on each, the median of ``REPEATS``)."""
    allowed = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                _mixed_work()
                times.append(time.perf_counter() - start)
            speeds.append(1 / statistics.median(times))
    finally:
        os.sched_setaffinity(0, allowed)
    return 1 / statistics.mean(speeds)


def scale(before: float, after: float) -> float:
    """The factor turning raw seconds, bracketed by probes ``before`` and ``after``,
    into reference-host seconds."""
    return REFERENCE_PROBE_S / ((before + after) / 2)


class Clock:
    """Times samples of work, in reference-host seconds when ``scaled``, else raw."""

    def __init__(self, scaled: bool) -> None:
        self.scaled = scaled
        #: (raw seconds, scale factor) of every sample taken.
        self.samples: list = []

    def measure(self, run):
        """Run ``run()``; returns its result, its raw seconds and the factor
        turning them into reference-host seconds."""
        before = probe() if self.scaled else REFERENCE_PROBE_S
        start = time.perf_counter()
        result = run()
        raw = time.perf_counter() - start
        factor = scale(before, probe()) if self.scaled else 1.0
        self.samples.append((raw, factor))
        return result, raw, factor
