#!/usr/bin/env python3
"""End-to-end smoke test of the job-server subsystem (CI: service-smoke).

Drives the real deployment shape — a server started through the CLI
(``repro-eba serve``), clients talking HTTP — and checks the properties the
service exists for:

1. two **concurrent identical submissions** of the quickstart scenario against
   a cold store coalesce into exactly ONE computation (the ``/stats`` counters
   prove it) and return byte-identical payloads;
2. the fetched payload is byte-identical to the **direct library path**
   (``spec.run`` + ``render_result`` against a fresh store) — the service adds
   transport, never semantics;
3. ``GET /metrics`` serves the unified registry (Prometheus text and JSON)
   with the coalescing counters from property 1, and ``/stats`` carries
   uptime/version/metrics;
4. a ``repro-eba submit --wait`` round trip works against the same server;
5. ``SIGINT`` shuts the server down gracefully (exit code 0).

Run it locally with ``python tools/service_smoke.py``; exits non-zero with a
diagnostic on the first failed property.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.failures import FailurePattern  # noqa: E402
from repro.service import ServiceClient, decode_request, render_result, sweep_request  # noqa: E402
from repro.store import default_store  # noqa: E402


def quickstart_request() -> dict:
    """The examples/quickstart.py scenario as a service sweep request."""
    n, t = 6, 2
    preferences = (1, 1, 1, 1, 1, 0)
    pattern = FailurePattern.from_blocked(
        n,
        blocked=[(r, 0, j) for r in (0, 1) for j in range(n) if j not in (0, 1)],
    )
    return sweep_request([("min", t), ("basic", t), ("opt", t)],
                         scenarios=[(preferences, pattern)], n=n)


def child_env() -> dict:
    """This environment with ``src`` first on the children's ``PYTHONPATH``."""
    inherited = os.environ.get("PYTHONPATH")
    path = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    return dict(os.environ, PYTHONPATH=path)


def start_server(cache_dir: Path) -> tuple:
    """Start ``repro-eba serve`` on a free port; return (process, base_url)."""
    env = child_env()
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "2", "--cache-dir", str(cache_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        cwd=ROOT)
    banner = process.stdout.readline().strip()
    # "repro-eba job server on http://127.0.0.1:<port> (2 worker(s))"
    try:
        url = banner.split(" on ", 1)[1].split()[0]
    except IndexError:
        process.kill()
        raise SystemExit(f"could not parse server banner: {banner!r}")
    return process, url


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def main() -> int:
    body = quickstart_request()
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as tmp:
        tmp_path = Path(tmp)
        process, url = start_server(tmp_path / "served-cache")
        try:
            client = ServiceClient(url, timeout=30.0, retries=5, backoff=0.2)
            check(client.healthz() == {"ok": True}, f"server healthy at {url}")

            # -- 1: two concurrent identical submissions, cold store --------
            payloads = [None, None]

            def submit(slot: int) -> None:
                payloads[slot] = client.submit_and_wait(body, timeout=300.0)

            threads = [threading.Thread(target=submit, args=(slot,))
                       for slot in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300.0)
            check(all(payload is not None for payload in payloads),
                  "both concurrent submissions returned")

            stats = client.stats()["service"]
            check(stats["submitted"] == 2, "both submissions counted")
            check(stats["executed"] == 1,
                  f"exactly one computation ran (executed={stats['executed']}, "
                  f"coalesced={stats['coalesced']}, "
                  f"store_hits={stats['store_hits']})")
            check(stats["coalesced"] + stats["store_hits"] == 1,
                  "the duplicate coalesced or hit the warm store")

            first, second = (json.dumps(payload, sort_keys=True)
                             for payload in payloads)
            check(first == second, "concurrent payloads are byte-identical")

            # -- 1b: the unified metrics registry over /metrics -------------
            import urllib.request
            with urllib.request.urlopen(f"{url}/metrics", timeout=30) as response:
                content_type = response.headers.get("Content-Type", "")
                exposition = response.read().decode("utf-8")
            check(content_type.startswith("text/plain"),
                  f"/metrics serves Prometheus text (got {content_type!r})")
            check("repro_jobs_submitted_total 2" in exposition,
                  "/metrics counts both submissions")
            check("repro_jobs_coalesced_total" in exposition
                  and "repro_jobs_executed_total" in exposition,
                  "/metrics exposes the coalescing counters")
            snapshot = client.metrics()
            check(snapshot["repro_jobs_submitted_total"]["value"] == 2,
                  "/metrics?format=json matches the text exposition")
            full_stats = client.stats()
            check("uptime_seconds" in full_stats and "version" in full_stats
                  and "metrics" in full_stats,
                  "/stats embeds uptime, version, and a metrics snapshot")

            # -- 2: byte-identical to the direct library path ---------------
            request = decode_request(body)
            direct = render_result(
                request, request.spec.run(store=default_store(tmp_path / "direct")))
            check(first == json.dumps(direct, sort_keys=True),
                  "service payload is byte-identical to the direct run")

            # -- 3: the CLI submit round trip -------------------------------
            submit_run = subprocess.run(
                [sys.executable, "-m", "repro.cli", "submit", "theorem",
                 "--theorem", "6.5", "--n", "3", "--t", "1", "--wait",
                 "--url", url],
                capture_output=True, text=True, timeout=300,
                env=child_env(), cwd=ROOT)
            check(submit_run.returncode == 0,
                  f"CLI submit --wait exits 0 (stderr: {submit_run.stderr.strip()})")
            check("holds" in submit_run.stdout,
                  "CLI submit prints the theorem verdict")

            # -- 4: graceful SIGINT shutdown --------------------------------
            process.send_signal(signal.SIGINT)
            remaining, _ = process.communicate(timeout=30)
            check(process.returncode == 0,
                  f"SIGINT exits 0 (got {process.returncode})")
            check("server stopped" in remaining, "shutdown message printed")
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=10)
    print("service smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
