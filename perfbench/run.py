#!/usr/bin/env python3
"""The repository's benchmark: paper claims cold/warm, ``--jobs`` fan-out, and a service mix.

Run from the repository root::

    python3 perfbench/run.py --workload claims-n4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload service-mix --seed 1 --seconds 30 --trace 1
    python3 perfbench/selftest.py   # every workload's code path at toy size

Workloads (see ``workloads.py`` for why each was chosen):

* ``claims-n4`` — Thm 6.5, Def 6.2 for P_min, Thm 6.6, Def 6.2 for P_basic at
  n=4 under SO(1), serially, each through a fresh handle on one on-disk store
  that starts empty every pass; then the same claims warm.
* ``models-jobs2`` — E12's ``check_theorems`` under RO(1) and GO(1) at n=3 plus
  the n=4 Def 6.2 scan for P_min, through a 2-worker ``ParallelExecutor``, no store.
* ``service-mix`` — an in-process ``JobServer`` (in-memory store, 2 workers)
  under a closed loop of 2 HTTP clients replaying a seeded request sequence.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

* ``setup_s`` — median over 7 fresh processes of the time from process start
  until the workload could run its first operation (imports, store directory,
  server start until ``/healthz`` answers);
* ``wall_s`` — median wall time of one cold pass over the fixed operation list;
* ``latency_p50_ms`` — median latency of the workload's repeated operation:
  a claim served warm from the on-disk store through a fresh store handle
  (claims-n4, the ``warm_p50_ms`` of the design), the n=4 Def 6.2 scan through
  the 2-worker executor (models-jobs2, one sample per pass), submit to result
  per request (service-mix);
* ``peak_rss_mb`` — peak RSS of the workload process (models-jobs2: the larger
  of the process and its worker processes).

The detail line before the result adds what is reported but not gated:
``latency_p95_ms`` with its sample count, where the sample supports it (ten
samples beyond it: claims-n4 and service-mix), ``throughput_rps`` (operations
of the cold pass per second of its wall time, i.e. ``wall_s`` restated),
``error_rate`` and the service's executed/coalesced/hit shares.

Set-up probes, and the timings of a workload whose work runs in this one
process (``HOST_SCALED``), are in reference-host seconds: each sample is
bracketed by ``hostspeed.probe()`` calls and its raw seconds scaled by
``hostspeed.scale`` (see ``hostspeed.py`` for why).  The detail line before the
result lists the raw set-up and pass times, the scale factors, the sample
counts and the highest percentile they support.

A run measures for ``--seconds`` from its start, set-up probes included, and
stops before a pass that would not fit; it makes at least ``MIN_PASSES``
passes, so a run of models-jobs2 (~13 s a pass) may overrun a short budget.

With ``--trace 1`` untraced passes alternate with traced passes whose layer
entry points are wrapped by ``layers.py``; the last line then carries the
per-layer self times and counts, ``trace.overhead_ratio`` (traced over
untraced median raw pass wall time) and ``trace.unattributed_s``, and the spans
are written as a ``repro.obs.trace`` schema-1 JSONL file under
``.perfbench_work/traces/``.

Every answer is checked against pinned verdicts and counts; a wrong answer
counts as a failed operation (``error_rate`` = failed / attempted).  Count
metrics (bar those a workload declares variable) are compared with the previous
run of the same code, workload and seed, and any difference fails the run: it
means nondeterminism, not noise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: A developer's shell must not turn an uncached workload into a cached one.
CACHE_ENV = ("REPRO_EBA_CACHE", "REPRO_EBA_CACHE_DIR", "REPRO_EBA_CACHE_MAX_BYTES")
SETUP_PROBES = 7
#: Untraced passes a ``--trace 0`` run makes even past ``--seconds`` (a
#: models-jobs2 pass takes ~13 s); a ``--trace 1`` run makes one of each kind.
MIN_PASSES = 2

END_TO_END = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args) -> int:
    """Child side of ``setup_s``: set up, say so, tear down."""
    work_dir = WORK / f"probe-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.size, work_dir)
    try:
        workload.setup()
        print("ready", flush=True)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


def measure_setup(args) -> float:
    """Seconds from starting a fresh workload process until it is ready to operate."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
               "--setup-probe"]
    start = time.perf_counter()
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited {code} after {line!r}")
    return elapsed


def percentile(samples, fraction: float) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=1000, method="inclusive")[round(fraction * 1000) - 1]


def highest_supported_percentile(count: int):
    """The highest of p50/p90/p95/p99 with at least ten samples beyond it."""
    supported = [p for p in (50, 90, 95, 99) if count * (100 - p) / 100 >= 10]
    return supported[-1] if supported else None


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, capture_output=True, text=True,
                               timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha or None, bool(dirty)


def stamp(args, workload) -> dict:
    import numpy
    from repro.store import code_fingerprint
    sha, dirty = git_state()
    return {"workload": args.workload, "seed": args.seed, "size": args.size,
            "seconds": args.seconds, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": sha, "git_dirty": dirty, "store_fingerprint": code_fingerprint(),
            "executor": workload.executor_config}


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def traced_pass(workload):
    """One pass under the layer wrappers; returns its result, metrics and recorder."""
    recorder = layers.Recorder()
    patches = layers.install(recorder)
    try:
        # Unscaled: probes inside the pass would count as unattributed time.
        result = workload.run_pass(hostspeed.Clock(scaled=False), recorder)
    finally:
        patches.restore()
    recorder.check_roots()
    metrics = layers.layer_metrics(recorder)
    metrics.update(result.counts)
    metrics.update(result.layers)
    if not result.failures:
        accounted = sum(value for name, value in metrics.items()
                        if name.endswith("_s") and name != "trace.wall_s")
        if abs(accounted - metrics["trace.wall_s"]) > 1e-6 * max(1.0, metrics["trace.wall_s"]):
            raise AssertionError(f"layer self times + unattributed = {accounted:.6f}s, "
                                 f"traced wall = {metrics['trace.wall_s']:.6f}s")
    return result, metrics, recorder


def check_counts(args, counts: dict, fingerprint: str, record: bool) -> list:
    """Compare count metrics with the last run of the same code, workload, size and seed.

    ``fingerprint`` covers the program; the benchmark's own sources are hashed
    in here, since they define the inputs.  Only a run with no other failure
    is ``record``ed as the reference for later runs.
    """
    digest = hashlib.sha256(fingerprint.encode())
    for source in sorted(HERE.glob("*.py")):
        digest.update(source.read_bytes())
    fingerprint = digest.hexdigest()
    path = WORK / "counts" / f"{args.workload}-{args.size}-seed{args.seed}.json"
    previous = {}
    if path.is_file():
        stored = json.loads(path.read_text())
        if stored.get("fingerprint") == fingerprint:
            previous = stored["counts"]
    differing = sorted(name for name in counts.keys() & previous.keys()
                       if counts[name] != previous[name])
    if record and not differing:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fingerprint": fingerprint,
                                    "counts": {**previous, **counts}}, sort_keys=True))
    return [f"count {name} = {counts[name]}, previous run of the same code and seed "
            f"had {previous[name]}" for name in differing]


def run(args) -> dict:
    start = time.perf_counter()
    setup_raw, setup_scale = [], []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            before = hostspeed.probe()
            setup_raw.append(measure_setup(args))
            setup_scale.append(hostspeed.scale(before, hostspeed.probe()))
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.size, work_dir)
    try:
        workload.setup()
        info = stamp(args, workload)
        results, traced, scales = [], [], []
        while True:
            pass_start = time.perf_counter()
            if args.trace and len(traced) < len(results):
                traced.append(traced_pass(workload))
            else:
                clock = hostspeed.Clock(scaled=workload.HOST_SCALED)
                results.append(workload.run_pass(clock))
                scales.append(statistics.median(factor for _raw, factor in clock.samples))
            cost = time.perf_counter() - pass_start
            if (time.perf_counter() - start + cost > args.seconds
                    and len(results) >= (1 if args.trace else MIN_PASSES)
                    and len(traced) == args.trace * len(results)):
                break
        rss = peak_rss_mb(include_children=workload.FORKS)
        failures = [failure for result in results + [t[0] for t in traced]
                    for failure in result.failures]
        failures += workload.check()
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(result.ops for result in results + [t[0] for t in traced])
    walls = [result.wall_s for result in results]
    detail = {"stamp": info, "passes": len(results), "traced_passes": len(traced),
              "setup_raw_s": setup_raw, "setup_scales": setup_scale,
              "wall_raw_s": [result.wall_raw_s for result in results],
              "median_scale_per_pass": scales}
    if args.trace:
        per_pass = [metrics for _result, metrics, _recorder in traced]
        count_names = [name for name in layers.COUNT_METRICS
                       if name in per_pass[0] and name not in workload.VARIABLE_COUNTS]
        counts = {name: per_pass[0][name] for name in count_names}
        for other in per_pass[1:]:
            failures += [f"count {name} differs between traced passes: {counts[name]} "
                         f"vs {other[name]}" for name in count_names
                         if other[name] != counts[name]]
        metrics = {name: statistics.median(m[name] for m in per_pass)
                   for name in layers.LAYER_METRICS}
        metrics.update(counts)
        metrics["trace.overhead_ratio"] = (
            statistics.median(result.wall_raw_s for result, _m, _r in traced)
            / statistics.median(result.wall_raw_s for result in results))
        units = layers.LAYER_METRICS
        trace_path = WORK / "traces" / f"{args.workload}-{args.size}-seed{args.seed}.jsonl"
        from repro.obs.trace import validate_record
        detail["trace_records"] = traced[0][2].write_jsonl(trace_path, validate_record)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        latencies = [sample for result in results for sample in result.latencies_s]
        counts = {name: value for name, value in results[0].counts.items()
                  if name.startswith("service.")}
        metrics = {
            "setup_s": statistics.median(raw * factor
                                         for raw, factor in zip(setup_raw, setup_scale)),
            "wall_s": statistics.median(walls),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "peak_rss_mb": rss,
        }
        units = END_TO_END
        supported = highest_supported_percentile(len(latencies))
        detail.update({
            "latency_samples": len(latencies),
            "highest_supported_percentile": supported,
            "latency_p95_ms": (1000 * percentile(latencies, 0.95)
                               if supported is not None and supported >= 95 else None),
            "throughput_rps": statistics.median(result.cold_ops / wall
                                                for result, wall in zip(results, walls)),
        })
        if counts:
            served = sum(counts.values())
            detail["service_shares"] = {name.split(".", 1)[1]: value / served
                                        for name, value in sorted(counts.items())}
    failures += check_counts(args, counts, info["store_fingerprint"], record=not failures)
    failed = min(attempted, len(failures))
    for failure in failures:
        print(f"perfbench: {failure}", file=sys.stderr)
    detail["failures"] = failures[:20]
    detail["error_rate"] = failed / attempted
    detail["attempted"] = attempted
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` starts for shared memory, and wait for it.

    A sharded ``scan_runs`` (models-jobs2's n=4 scan) passes its result back
    through ``SharedMemory``, which starts a resource-tracker process that
    would otherwise outlive this one.  ``_stop`` closes its pipe and reaps it.
    """
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in CACHE_ENV:
        os.environ.pop(name, None)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    try:
        if args.setup_probe:
            return setup_probe(args)
        print(json.dumps(run(args)))
        return 0
    finally:
        stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
