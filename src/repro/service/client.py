"""The thin job-submission client (``repro-eba submit``).

Stdlib :mod:`urllib` only.  The client speaks the wire format of
:mod:`repro.service.wire` and the endpoints of
:mod:`repro.service.server`; its one piece of real logic is
:meth:`ServiceClient.submit_and_wait` — synchronous polling with a deadline —
plus bounded retry with exponential backoff on failures that are plausibly
transient:

* **transport errors** (connection refused/reset, socket timeouts), which
  happen routinely while a server is still binding or restarting;
* **HTTP 5xx**, including 503 backpressure rejections, whose ``Retry-After``
  header (when present) replaces the backoff delay.  Retrying a submit is
  safe by construction: requests are content addressed, so a duplicate
  submission coalesces onto the first instead of recomputing.

HTTP 4xx is **never** retried — a 400 is malformed forever, a 404 names a job
the server does not know — and surfaces as
:class:`~repro.core.errors.ServiceError`, as does a 5xx that survives the
retry budget.  The result fetch is the one 5xx exception: a failed job's 500
carries its traceback — a deterministic answer, not an outage — and raises
immediately.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Optional

from ..core.errors import ServiceError, ServiceTimeout
from .jobs import CANCELLED, DONE, FAILED, TERMINAL_STATES

#: Never sleep longer than this on a server-provided Retry-After, however
#: confused the server: the client's own deadline handling should stay live.
MAX_RETRY_AFTER = 30.0


def _retry_after_seconds(exc: urllib.error.HTTPError) -> Optional[float]:
    """The parsed ``Retry-After`` delay of a response, clamped sane."""
    raw = exc.headers.get("Retry-After") if exc.headers is not None else None
    if raw is None:
        return None
    try:
        return max(0.0, min(float(raw), MAX_RETRY_AFTER))
    except ValueError:
        return None


class ServiceClient:
    """A client for one job server.

    Parameters
    ----------
    base_url:
        E.g. ``"http://127.0.0.1:8322"`` (no trailing slash needed).
    timeout:
        Per-HTTP-request socket timeout, seconds.
    retries:
        How many times a transport-failed or 5xx-failed request is retried.
    backoff:
        First retry delay, seconds; doubles per attempt (0.2 → 0.4 → 0.8 …).
        A 503's ``Retry-After`` header overrides the delay for that attempt.
    """

    def __init__(self, base_url: str, timeout: float = 10.0,
                 retries: int = 3, backoff: float = 0.2) -> None:
        if retries < 0:
            raise ServiceError(f"retries must be non-negative, got {retries}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff

    # ------------------------------------------------------------------ transport

    def _request(self, method: str, path: str, body: Optional[dict] = None,
                 expect_errors: bool = False, retry_5xx: bool = True) -> dict:
        """One HTTP round trip, JSON in / JSON out, with bounded retry.

        ``expect_errors`` returns the decoded payload even on 4xx/5xx without
        retrying (status polling wants the body of a 409/500, not an
        exception — and a 500 carrying a failed job's traceback is an answer,
        not an outage).  ``retry_5xx=False`` keeps the exception behaviour
        but exempts the call from the 5xx retry budget, for endpoints whose
        5xx is deterministic (the result fetch of a failed job).
        """
        data = json.dumps(body).encode("utf-8") if body is not None else None
        delay = self.backoff
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            request = urllib.request.Request(
                self.base_url + path, data=data, method=method,
                headers={"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    return json.loads(response.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:
                payload = self._decode_error(exc)
                if expect_errors:
                    return payload
                message = payload.get("error") or payload.get("state") or str(exc)
                error = ServiceError(
                    f"{method} {path} failed with HTTP {exc.code}: {message}")
                error.__cause__ = exc
                if exc.code < 500 or not retry_5xx or attempt >= self.retries:
                    # 4xx is deterministic — retrying a malformed request can
                    # only waste the server's time.  5xx raises once the
                    # budget is spent (or immediately when the caller knows
                    # the endpoint's 5xx is deterministic).
                    raise error
                pause = _retry_after_seconds(exc)
                if pause is None:
                    pause = delay
                    delay *= 2
                time.sleep(pause)
            except (urllib.error.URLError, ConnectionError, TimeoutError) as exc:
                last_error = exc
                if attempt < self.retries:
                    time.sleep(delay)
                    delay *= 2
        raise ServiceError(
            f"could not reach {self.base_url}{path} after {self.retries + 1} "
            f"attempt(s): {last_error}") from last_error

    @staticmethod
    def _decode_error(exc: urllib.error.HTTPError) -> dict:
        try:
            payload = json.loads(exc.read().decode("utf-8"))
            return payload if isinstance(payload, dict) else {"error": repr(payload)}
        except Exception:
            return {"error": f"HTTP {exc.code}"}

    # ------------------------------------------------------------------ endpoints

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def metrics(self) -> dict:
        """The server's metrics-registry snapshot (``GET /metrics?format=json``)."""
        return self._request("GET", "/metrics?format=json")

    def submit(self, request: dict) -> dict:
        """``POST /jobs``; returns the receipt ``{"job", "state", "coalesced", "hit"}``.

        Submits are idempotent (content addressing), so 5xx/503 responses are
        retried like transport errors, honouring ``Retry-After`` on 503.
        """
        return self._request("POST", "/jobs", body=request)

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """The finished job's payload (raises :class:`ServiceError` otherwise).

        No 5xx retry here: the endpoint's 500 carries a failed job's
        traceback — a deterministic answer, not an outage — so sleeping
        through the retry budget would only re-hammer the server.
        """
        answer = self._request("GET", f"/jobs/{job_id}/result",
                               retry_5xx=False)
        return answer["result"]

    def cancel(self, job_id: str) -> dict:
        """``POST /jobs/<id>/cancel``; returns the job's (possibly new) state.

        A queued job cancels immediately; a running one cooperatively — the
        response still says ``running`` (with ``cancel_requested``) until the
        worker reaches its next simulation round and confirms.
        """
        return self._request("POST", f"/jobs/{job_id}/cancel")

    # ------------------------------------------------------------------ the workflow

    def wait(self, job_id: str, poll_interval: float = 0.2,
             timeout: Optional[float] = 120.0,
             on_progress=None) -> dict:
        """Poll until the job reaches a terminal state; return its result payload.

        ``on_progress`` (when given) is called with each status payload that
        carries a ``progress`` dict — the server mirrors the executing
        worker's live progress (phase/done/total/eta) into ``GET /jobs/<id>``
        while the job runs.  Callback exceptions are not caught.

        Raises :class:`~repro.core.errors.ServiceTimeout` at the deadline (the
        job keeps running server-side) and :class:`ServiceError` if the job
        failed (carrying the worker traceback) or was cancelled.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            state = status["state"]
            if state in TERMINAL_STATES:
                break
            if on_progress is not None and status.get("progress"):
                on_progress(status)
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceTimeout(
                    f"job {job_id} still {state} after {timeout:.1f}s "
                    "(it keeps running server-side; re-submit to re-attach)")
            time.sleep(poll_interval)
        if state == DONE:
            return self.result(job_id)
        if state == FAILED:
            error = self._request("GET", f"/jobs/{job_id}/result",
                                  expect_errors=True).get("error", "unknown error")
            raise ServiceError(f"job {job_id} failed on the server:\n{error}")
        assert state == CANCELLED
        raise ServiceError(f"job {job_id} was cancelled")

    def submit_and_wait(self, request: dict, poll_interval: float = 0.2,
                        timeout: Optional[float] = 120.0,
                        on_progress=None) -> dict:
        """Submit and synchronously wait; the client-side happy path.

        A warm-store or coalesced submission resolves in one or two round
        trips; everything else polls at ``poll_interval`` until ``timeout``,
        forwarding live progress to ``on_progress`` (see :meth:`wait`).
        """
        receipt = self.submit(request)
        if receipt["state"] == DONE:
            return self.result(receipt["job"])
        return self.wait(receipt["job"], poll_interval=poll_interval,
                         timeout=timeout, on_progress=on_progress)


__all__ = ["ServiceClient"]
