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
from ..failures.pattern import FailurePattern
from ..protocols.base import ActionProtocol
from ..protocols.baselines import DelayedMinProtocol, NaiveZeroBiasedProtocol
from ..protocols.pbasic import BasicProtocol
from ..protocols.pmin import MinProtocol
from ..protocols.popt import OptimalFipProtocol

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
THEOREMS = ("6.5", "6.6", "a21")

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


def _theorem_parts(check: TheoremCheck) -> Tuple[Any, Any, Any]:
    """The (protocol, program, context) triple of a theorem check.

    Must mirror :mod:`repro.experiments.implementation_check` exactly: the
    service's job key has to equal the report key those checks cache under,
    so a store warmed by ``repro-eba cache warm`` (or any direct CLI run)
    answers theorem submissions without recomputation.
    """
    from ..kbp.programs import make_p0, make_p1
    from ..systems.contexts import gamma_basic, gamma_fip, gamma_min
    if check.theorem == "6.5":
        return MinProtocol(check.t), make_p0(check.n), gamma_min(check.n, check.t)
    if check.theorem == "6.6":
        return BasicProtocol(check.t), make_p0(check.n), gamma_basic(check.n, check.t)
    if check.theorem == "a21":
        return (OptimalFipProtocol(check.t), make_p1(check.n, check.t),
                gamma_fip(check.n, check.t))
    raise ServiceError(f"unknown theorem {check.theorem!r}; one of {THEOREMS}")


def request_key(kind: str, spec: Any) -> str:
    """The content key identifying a request's computation in the store."""
    from ..store import implementation_report_key, run_task_key, sweep_key
    if kind == "run":
        preferences, pattern = spec.scenario
        return run_task_key((spec.protocol, spec.n, preferences, pattern, spec.horizon))
    if kind == "sweep":
        return sweep_key(spec)
    if kind == "theorem":
        protocol, program, context = _theorem_parts(spec)
        # max_time=None / max_mismatches=10: check_implements' defaults, which
        # is what the experiment wrappers (and cache warm) run with.
        return implementation_report_key(protocol, program, context, None, 10)
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
        return RunSpec(
            protocol=decode_protocol(data, "run request"),
            n=_require(data, "n", "run request"),
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
        return SweepSpec(protocols=protocols,
                         n=data.get("n") or (len(scenarios[0][0]) if scenarios else 0),
                         scenarios=scenarios,
                         horizon=data.get("horizon"),
                         seed=data.get("seed"))
    if kind == "theorem":
        theorem = str(_require(data, "theorem", "theorem request"))
        if theorem not in THEOREMS:
            raise ServiceError(f"unknown theorem {theorem!r}; one of {THEOREMS}")
        return TheoremCheck(theorem=theorem,
                            n=_require(data, "n", "theorem request"),
                            t=_require(data, "t", "theorem request"))
    raise ServiceError(f"unknown request kind {kind!r}; one of {REQUEST_KINDS}")


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
    builder = Sweep.of(*protocols).on_random(
        n=_require(workload, "n", "sweep workload"),
        t=_require(workload, "t", "sweep workload"),
        count=_require(workload, "count", "sweep workload"),
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

def execute_request(request: JobRequest, executor: Any = None,
                    store: Any = None) -> JSONObject:
    """Run a decoded request through the library and render its result payload.

    This is what worker threads call: execution goes through the ordinary
    ``repro.api`` entry points (so ``store=`` gives per-run caching and warm
    hits exactly as the CLI gets them), and the returned payload is the
    JSON-safe rendering :func:`render_result` defines.
    """
    from ..experiments import implementation_check
    if request.kind in ("run", "sweep"):
        artifact: object = request.spec.run(executor, store=store)
    elif request.kind == "theorem":
        check = {"6.5": implementation_check.check_theorem_6_5,
                 "6.6": implementation_check.check_theorem_6_6,
                 "a21": implementation_check.check_theorem_a21}[request.spec.theorem]
        artifact = check(request.spec.n, request.spec.t, store=store)
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
