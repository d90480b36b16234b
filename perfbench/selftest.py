#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload's code path at toy size.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

For each workload it runs ``run.py`` untraced and traced at n=3 with a
handful of service requests, and asserts that the last output line has exactly the contract's
keys, every metric ``BENCHMARK.json`` names with its unit, passing
verdict checks, and (traced) a span file the program's trace reader accepts.
It also checks that the benchmark refuses to run without the program source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def check_workload(name: str, spec: dict) -> None:
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        done = run(["--workload", name, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--size", "toy"])
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["perfbench"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] and result["failed"] == 0, detail["failures"]
        assert result["attempted"] >= 1
        units = {metric["name"]: metric["unit"] for metric in declared}
        assert {key: value["unit"] for key, value in result["metrics"].items()} == units
        for key, value in result["metrics"].items():
            assert isinstance(value["value"], (int, float)), (key, value)
            assert trace or value["value"] > 0, (key, value)
        if trace:
            sys.path.insert(0, str(ROOT / "src"))
            from repro.obs.trace import read_trace
            records = read_trace(ROOT / detail["trace_file"])
            assert len(records) == detail["trace_records"] > 1
            assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        print(f"ok  {name} --trace {trace}: {result['attempted']} operations")


def check_refuses_without_source() -> None:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run(["--workload", "claims-n4", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout, done
    print("ok  refuses to run without the program source")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in WORKLOADS:
        check_workload(name, spec)
    check_refuses_without_source()
    return 0


if __name__ == "__main__":
    sys.exit(main())
