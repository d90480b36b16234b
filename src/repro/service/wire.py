"""The service wire format: JSON encodings of specs, requests, and results.

Everything that crosses the job API is JSON, and this module is the single
translation layer between that JSON and the library's objects.  Three request
kinds exist, mirroring the three expensive artifact families of the repo:

``run``
    One :class:`~repro.api.specs.RunSpec` — a protocol, ``n``, a preference
    vector, an optional failure pattern, an optional horizon.
``sweep``
    One :class:`~repro.api.specs.SweepSpec` — several protocols over a
    workload, given either explicitly (``scenarios``) or as a seeded random
    workload description (``workload``, mirroring
    :meth:`repro.api.specs.Sweep.on_random` so request bodies stay small).
``theorem``
    One of the paper's implementation checks (Theorem 6.5 / 6.6 / A.21) at a
    given ``(n, t)``.

Protocols cross the wire by *registry key* plus parameters (``{"protocol":
"min", "t": 1}``), never by pickle: the wire format is language-neutral and a
malicious request body cannot smuggle code.  Failure patterns are encoded
extensionally (faulty set plus sorted omission triples), matching their
canonical pickled form.

Decoded requests become a :class:`JobRequest` — ``(kind, spec)`` plus the
job's **content key**, computed with the same :mod:`repro.store` key
functions the artifact cache uses.  That shared key is the heart of the
service: two requests with the same key *are* the same computation, so the
job queue coalesces them and a warm store answers them without executing
anything (see :mod:`repro.service.jobs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

#: A decoded JSON object (request and result bodies are always objects).
JSONObject = Dict[str, Any]

from ..api.specs import RunSpec, SweepSpec
from ..core.errors import ServiceError
from ..experiments.implementation_check import THEOREM_PARTS, check_theorem, theorem_report_key
from ..failures.pattern import FailurePattern
from ..protocols.base import ActionProtocol
from ..protocols.baselines import DelayedMinProtocol, NaiveZeroBiasedProtocol
from ..protocols.pbasic import BasicProtocol
from ..protocols.pmin import MinProtocol
from ..protocols.popt import OptimalFipProtocol
from ..simulation.trace import ROUND_CAP_FACTOR

#: Wire key -> constructor taking the failure bound t.  This is the protocol
#: *namespace* of the wire format (and of the CLI, which imports it): requests
#: name protocols by these keys, never by class path.
PROTOCOL_FACTORIES: Dict[str, Callable[[int], ActionProtocol]] = {
    "min": MinProtocol,
    "basic": BasicProtocol,
    "opt": OptimalFipProtocol,
    "naive0": NaiveZeroBiasedProtocol,
    "delayed": lambda t: DelayedMinProtocol(t, delay=1),
}

#: The theorem checks a ``theorem`` request may name (see
#: :mod:`repro.experiments.implementation_check`).
THEOREMS = tuple(THEOREM_PARTS)

#: The largest system, in runs, a ``theorem`` request may build.  It admits
#: every size the repo checks (n <= 5 at t = 1, n = 3 at t = 2); the next
#: sizes up (n = 6 at t = 1: 12.6M runs, n = 4 at t = 2: 1.6G) would exhaust
#: the server's memory.
MAX_THEOREM_RUNS = 2_000_000

#: The most simulation work a ``run`` or ``sweep`` request may ask for: runs
#: × rounds × n², where a sweep runs every protocol over every scenario and a
#: request without a horizon counts the simulator's round cap
#: (``ROUND_CAP_FACTOR · (t + 2)``).  A 2-protocol, 40-scenario n=6 sweep at
#: horizon 1000 is 2 880 000 and peaks at ~145 MB; ten times its scenarios
#: would not fit beside other jobs.
MAX_SIMULATION_WORK = 4_000_000

#: The request kinds the service understands.
REQUEST_KINDS = ("run", "sweep", "theorem")


def _require(data: JSONObject, field: str, kind: str) -> Any:
    if field not in data:
        raise ServiceError(f"{kind} request is missing the {field!r} field")
    return data[field]


# ------------------------------------------------------------------ protocols

def decode_protocol(data: JSONObject, where: str = "request") -> ActionProtocol:
    """Build the protocol named by ``{"protocol": key, "t": t}``."""
    if not isinstance(data, dict):
        raise ServiceError(f"{where}: protocol must be an object "
                           f'like {{"protocol": "min", "t": 1}}, got {data!r}')
    key = _require(data, "protocol", where)
    if key not in PROTOCOL_FACTORIES:
        raise ServiceError(
            f"{where}: unknown protocol key {key!r}; "
            f"one of {', '.join(sorted(PROTOCOL_FACTORIES))}")
    t = _require(data, "t", where)
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise ServiceError(f"{where}: t must be a non-negative integer, got {t!r}")
    return PROTOCOL_FACTORIES[key](t)


def encode_protocol(protocol: ActionProtocol) -> JSONObject:
    """The wire encoding of a registered protocol (inverse of :func:`decode_protocol`).

    Raises :class:`~repro.core.errors.ServiceError` for a protocol object no
    registry key reconstructs — such a protocol cannot cross the wire.
    """
    for key, factory in PROTOCOL_FACTORIES.items():
        candidate = factory(protocol.t)
        if type(candidate) is type(protocol) and candidate.__dict__ == protocol.__dict__:
            return {"protocol": key, "t": protocol.t}
    raise ServiceError(
        f"protocol {protocol!r} matches no wire registry key; "
        "register a factory in repro.service.wire.PROTOCOL_FACTORIES")


# ------------------------------------------------------------------ patterns

def encode_pattern(pattern: FailurePattern) -> JSONObject:
    """The extensional JSON encoding of a failure pattern (sorted, canonical)."""
    return {
        "n": pattern.n,
        "faulty": sorted(pattern.faulty),
        "omissions": [list(triple) for triple in sorted(pattern.omissions)],
        "receive_omissions": [list(triple)
                              for triple in sorted(pattern.receive_omissions)],
    }


def decode_pattern(data: Optional[JSONObject],
                   where: str = "request") -> Optional[FailurePattern]:
    """Rebuild a failure pattern from its wire encoding (``None`` passes through)."""
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ServiceError(f"{where}: pattern must be an object or null, got {data!r}")
    try:
        return FailurePattern(
            n=_require(data, "n", where),
            faulty=frozenset(data.get("faulty", ())),
            omissions=frozenset(tuple(triple) for triple in data.get("omissions", ())),
            receive_omissions=frozenset(
                tuple(triple) for triple in data.get("receive_omissions", ())),
        )
    except ServiceError:
        raise
    except Exception as exc:
        raise ServiceError(f"{where}: invalid failure pattern: {exc}") from exc


def _decode_scenario(entry: Any, index: int,
                     where: str) -> Tuple[Tuple[Any, ...], Optional[FailurePattern]]:
    try:
        preferences, pattern = entry
    except Exception:
        raise ServiceError(
            f"{where}: scenario {index} must be a [preferences, pattern] pair")
    return tuple(preferences), decode_pattern(pattern, f"{where} scenario {index}")


# ------------------------------------------------------------------ requests

@dataclass(frozen=True)
class TheoremCheck:
    """A ``theorem`` request: which implementation theorem, at which size."""

    theorem: str
    n: int
    t: int


@dataclass(frozen=True)
class JobRequest:
    """A decoded submission: its kind, the spec object, and the content key.

    ``key`` is the request's identity everywhere in the service — the job id,
    the coalescing rendezvous, and (for ``run``/``theorem`` requests) the
    artifact-store key a warm store answers from.  ``body`` retains the raw
    JSON request object so the job journal can persist (and a restarted
    server re-decode) the submission; recovered terminal jobs carry
    ``spec=None`` — they are re-served, never re-executed.
    """

    kind: str
    spec: Any
    key: str
    body: Optional[JSONObject] = None


def _theorem_runs(check: TheoremCheck) -> int:
    """The runs of ``check``'s system: one per failure pattern and preference
    vector.  Once the ``2^n`` preference vectors alone exceed
    :data:`MAX_THEOREM_RUNS`, that lower bound is returned, so a huge ``n``
    costs no pattern count."""
    runs: int = 2 ** check.n
    if runs <= MAX_THEOREM_RUNS:
        context = THEOREM_PARTS[check.theorem](check.n, check.t)[2]
        runs *= context.failure_model.count_patterns(context.horizon)
    return runs


def request_key(kind: str, spec: Any) -> str:
    """The content key identifying a request's computation in the store."""
    from ..store import run_task_key, sweep_key
    if kind == "run":
        preferences, pattern = spec.scenario
        return run_task_key((spec.protocol, spec.n, preferences, pattern, spec.horizon))
    if kind == "sweep":
        return sweep_key(spec)
    if kind == "theorem":
        # The report key the theorem checks (and cache warm) cache under.
        return theorem_report_key(spec.theorem, spec.n, spec.t)
    raise ServiceError(f"unknown request kind {kind!r}; one of {REQUEST_KINDS}")


def decode_request(data: object) -> JobRequest:
    """Parse a JSON request body into a :class:`JobRequest`.

    Raises :class:`~repro.core.errors.ServiceError` on any malformed body;
    the server maps that to a 400 response.
    """
    if not isinstance(data, dict):
        raise ServiceError(f"request body must be a JSON object, got {type(data).__name__}")
    kind = _require(data, "type", "job")
    try:
        spec = _decode_spec(kind, data)
        return JobRequest(kind=kind, spec=spec, key=request_key(kind, spec),
                          body=data)
    except ServiceError:
        raise
    except Exception as exc:
        # A wrong-typed field (TypeError) or a spec that fails validation
        # (ConfigurationError etc.) is a client error too.
        raise ServiceError(f"invalid {kind} request: {exc}") from exc


def _decode_spec(kind: Any, data: JSONObject) -> Any:
    """The spec object of a ``kind`` request (a :class:`JobRequest`'s ``spec``)."""
    if kind == "run":
        protocol = decode_protocol(data, "run request")
        _bound_simulation("run", (protocol,), 1, _require(data, "n", "run request"),
                          data.get("horizon"))
        return RunSpec(
            protocol=protocol,
            n=data["n"],
            preferences=tuple(_require(data, "preferences", "run request")),
            pattern=decode_pattern(data.get("pattern"), "run request"),
            horizon=data.get("horizon"),
        )
    if kind == "sweep":
        protocols = tuple(decode_protocol(entry, "sweep request")
                          for entry in _require(data, "protocols", "sweep request"))
        if "workload" in data and "scenarios" in data:
            raise ServiceError("sweep request: give either 'scenarios' or "
                               "'workload', not both")
        if "workload" in data:
            return _sweep_from_workload(protocols, data)
        scenarios = tuple(
            _decode_scenario(entry, index, "sweep request")
            for index, entry in enumerate(_require(data, "scenarios", "sweep request")))
        n = data.get("n") or (len(scenarios[0][0]) if scenarios else 0)
        _bound_simulation("sweep", protocols, len(scenarios), n, data.get("horizon"))
        return SweepSpec(protocols=protocols,
                         n=n,
                         scenarios=scenarios,
                         horizon=data.get("horizon"),
                         seed=data.get("seed"))
    if kind == "theorem":
        theorem = str(_require(data, "theorem", "theorem request"))
        if theorem not in THEOREMS:
            raise ServiceError(f"unknown theorem {theorem!r}; one of {THEOREMS}")
        check = TheoremCheck(theorem=theorem,
                             n=_require(data, "n", "theorem request"),
                             t=_require(data, "t", "theorem request"))
        runs = _theorem_runs(check)
        if runs > MAX_THEOREM_RUNS:
            raise ServiceError(
                f"theorem request: theorem {theorem} at n={check.n}, t={check.t} "
                f"builds at least {runs} runs, over the service's bound of "
                f"MAX_THEOREM_RUNS={MAX_THEOREM_RUNS}")
        return check
    raise ServiceError(f"unknown request kind {kind!r}; one of {REQUEST_KINDS}")


def _bound_simulation(kind: str, protocols: Sequence[ActionProtocol], scenarios: Any,
                      n: Any, horizon: Any) -> None:
    """Refuse a ``run`` or ``sweep`` request over :data:`MAX_SIMULATION_WORK`.

    Called before a single scenario is generated, so a huge ``count`` costs
    nothing; a non-integer size is refused here, before it is multiplied.
    """
    for name, value in (("scenario count", scenarios), ("n", n), ("horizon", horizon)):
        if value is not None and type(value) is not int:
            raise ServiceError(
                f"invalid {kind} request: {name} must be an integer, got {value!r}")
    rounds = horizon
    if rounds is None:
        rounds = ROUND_CAP_FACTOR * (max((protocol.t for protocol in protocols), default=0) + 2)
    work = len(protocols) * scenarios * rounds * n * n
    if work > MAX_SIMULATION_WORK:
        raise ServiceError(
            f"{kind} request: {len(protocols)} protocol(s) × {scenarios} scenario(s) × "
            f"{rounds} rounds × n²={n * n} is {work}, over the service's bound of "
            f"MAX_SIMULATION_WORK={MAX_SIMULATION_WORK}")


def _sweep_from_workload(protocols: Tuple[ActionProtocol, ...],
                         data: JSONObject) -> SweepSpec:
    from ..api.specs import Sweep
    workload = data["workload"]
    if not isinstance(workload, dict):
        raise ServiceError(f"sweep request: workload must be an object, got {workload!r}")
    kind = workload.get("kind", "random")
    if kind != "random":
        raise ServiceError(f"sweep request: unknown workload kind {kind!r} "
                           "(only 'random' is defined)")
    _bound_simulation("sweep", protocols, _require(workload, "count", "sweep workload"),
                      _require(workload, "n", "sweep workload"), data.get("horizon"))
    builder = Sweep.of(*protocols).on_random(
        n=workload["n"],
        t=_require(workload, "t", "sweep workload"),
        count=workload["count"],
        seed=workload.get("seed", 0),
        model=workload.get("model"),
    )
    return builder.with_horizon(data.get("horizon")).build()


# ------------------------------------------------------------------ request builders

def run_request(protocol: str, t: int, n: int, preferences: Sequence[int],
                pattern: Optional[FailurePattern] = None,
                horizon: Optional[int] = None) -> JSONObject:
    """Build a ``run`` request body (the client-side convenience)."""
    return {"type": "run", "protocol": protocol, "t": t, "n": n,
            "preferences": list(preferences),
            "pattern": encode_pattern(pattern) if pattern is not None else None,
            "horizon": horizon}


def sweep_request(protocols: Sequence[Tuple[str, int]],
                  scenarios: Optional[Sequence[Tuple[Any, Any]]] = None,
                  workload: Optional[JSONObject] = None,
                  n: Optional[int] = None,
                  horizon: Optional[int] = None,
                  seed: Optional[int] = None) -> JSONObject:
    """Build a ``sweep`` request body from protocol ``(key, t)`` pairs.

    Give either ``scenarios`` (explicit ``(preferences, pattern)`` pairs) or
    ``workload`` (a seeded random-workload description like
    ``{"n": 4, "t": 1, "count": 8, "seed": 0}``).
    """
    body: JSONObject = {"type": "sweep",
                  "protocols": [{"protocol": key, "t": t} for key, t in protocols]}
    if (scenarios is None) == (workload is None):
        raise ServiceError("sweep_request needs exactly one of scenarios= or workload=")
    if scenarios is not None:
        body["scenarios"] = [
            [list(preferences), encode_pattern(pattern)]
            for preferences, pattern in scenarios
        ]
        if n is not None:
            body["n"] = n
    else:
        assert workload is not None  # the exactly-one check above
        body["workload"] = dict(workload)
    if horizon is not None:
        body["horizon"] = horizon
    if seed is not None:
        body["seed"] = seed
    return body


def theorem_request(theorem: str, n: int, t: int) -> JSONObject:
    """Build a ``theorem`` request body."""
    return {"type": "theorem", "theorem": theorem, "n": n, "t": t}


# ------------------------------------------------------------------ execution + results

def execute_request(request: JobRequest, store: Any = None) -> JSONObject:
    """Run a decoded request in-process and render its result payload.

    This is what worker threads call: execution goes through the ordinary
    ``repro.api`` entry points (so ``store=`` gives per-run caching and warm
    hits exactly as the CLI gets them), and the returned payload is the
    JSON-safe rendering :func:`render_result` defines.
    """
    if request.kind in ("run", "sweep"):
        artifact: object = request.spec.run(store=store)
    elif request.kind == "theorem":
        artifact = check_theorem(request.spec.theorem, request.spec.n,
                                 request.spec.t, store=store)
    else:  # pragma: no cover - decode_request already rejected it
        raise ServiceError(f"unknown request kind {request.kind!r}")
    return render_result(request, artifact)


def render_result(request: JobRequest, artifact: Any) -> JSONObject:
    """The deterministic JSON payload of a finished job.

    Determinism is load-bearing: coalesced and cached submissions must return
    **byte-identical** results to a fresh computation, so every field here is
    a pure function of the artifact (no timestamps, no identity).
    """
    if request.kind == "run":
        from ..reporting.trace_view import render_decision_timeline, render_run
        from ..spec.eba import check_eba
        trace = artifact
        deadline = request.spec.protocol.t + 2
        report = check_eba(trace, deadline=deadline)
        return {
            "kind": "run",
            "protocol": trace.protocol_name,
            "n": request.spec.n,
            "render": render_run(trace),
            "timeline": render_decision_timeline(trace),
            "eba_ok": report.ok,
            "eba_deadline": deadline,
            "violations": [str(v) for v in report.violations()] if not report.ok else [],
        }
    if request.kind == "sweep":
        results = artifact
        return {
            "kind": "sweep",
            "summary": results.summary(),
            "protocols": list(results.protocol_names),
            "runs": len(results.protocol_names) * len(results.scenarios),
            "table": results.table(),
        }
    if request.kind == "theorem":
        report = artifact
        return {
            "kind": "theorem",
            "theorem": request.spec.theorem,
            "n": request.spec.n,
            "t": request.spec.t,
            "claim": (f"{report.protocol_name} implements {report.program_name} "
                      f"in {report.context_name}"),
            "holds": report.ok,
            "checked_states": report.checked_states,
            "mismatches": len(report.mismatches),
        }
    raise ServiceError(f"unknown request kind {request.kind!r}")  # pragma: no cover


__all__ = [
    "JobRequest",
    "MAX_SIMULATION_WORK",
    "MAX_THEOREM_RUNS",
    "PROTOCOL_FACTORIES",
    "REQUEST_KINDS",
    "THEOREMS",
    "TheoremCheck",
    "decode_pattern",
    "decode_protocol",
    "decode_request",
    "encode_pattern",
    "encode_protocol",
    "execute_request",
    "render_result",
    "request_key",
    "run_request",
    "sweep_request",
    "theorem_request",
]
