"""Experiment E1 — message complexity (Proposition 8.1).

The paper states that, per run,

* ``P_min`` sends ``n²`` bits in total (every agent sends its one-bit decide
  notification exactly once, to every agent);
* ``P_basic`` sends ``O(n² t)`` bits (constant-size messages to every agent for
  at most ``t + 1`` rounds);
* a standard communication-graph implementation of the full-information
  exchange sends ``O(n⁴ t²)`` bits.

This experiment measures the exact totals on failure-free runs (the case the
paper's Section 8 analyses) for a sweep of ``(n, t)`` and compares them with
the stated bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import StoreLike, Sweep
from ..failures.pattern import FailurePattern
from ..protocols.base import ActionProtocol
from ..protocols.pbasic import BasicProtocol
from ..protocols.pmin import MinProtocol
from ..protocols.popt import OptimalFipProtocol
from ..reporting.tables import format_table
from ..workloads.preferences import all_ones, single_zero


@dataclass(frozen=True)
class BitsMeasurement:
    """Bits sent by one protocol in one failure-free run."""

    protocol: str
    n: int
    t: int
    scenario: str
    bits: int
    bits_excluding_self: int
    messages: int
    paper_bound: int
    within_bound: bool

    def as_row(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "n": self.n,
            "t": self.t,
            "scenario": self.scenario,
            "bits": self.bits,
            "bits (no self)": self.bits_excluding_self,
            "messages": self.messages,
            "paper bound": self.paper_bound,
            "within bound": self.within_bound,
        }


def paper_bit_bound(protocol_name: str, n: int, t: int) -> int:
    """The Proposition 8.1 bound for a protocol (exact for ``P_min``, big-O otherwise).

    For the big-O bounds we use constant 4, which comfortably covers the
    concrete encodings used by the library (2-bit ``E_basic`` alphabet; 2 bits
    per communication-graph label).
    """
    if protocol_name == "P_min":
        return n * n
    if protocol_name == "P_basic":
        return 4 * n * n * (t + 1)
    # Full-information exchange: O(n^4 t^2) bits per run.
    return 4 * (n ** 4) * ((t + 1) ** 2)


def default_protocols(t: int) -> List[ActionProtocol]:
    """The three Section 8 protocols with failure bound ``t``."""
    return [MinProtocol(t), BasicProtocol(t), OptimalFipProtocol(t)]


def measure_bits(n: int, t: int,
                 protocols: Optional[Sequence[ActionProtocol]] = None,
                 store: StoreLike = None) -> List[BitsMeasurement]:
    """Measure total bits for the two failure-free scenarios of Section 8."""
    if protocols is None:
        protocols = default_protocols(t)
    pattern = FailurePattern.failure_free(n)
    labelled = [
        ("one agent prefers 0", (single_zero(n), pattern)),
        ("all agents prefer 1", (all_ones(n), pattern)),
    ]
    results = Sweep.of(*protocols).on([scenario for _, scenario in labelled], n=n).run(store=store)
    measurements: List[BitsMeasurement] = []
    for protocol in protocols:
        for index, (label, _scenario) in enumerate(labelled):
            trace = results.trace(protocol.name, index)
            bits = trace.total_bits(include_self=True)
            bound = paper_bit_bound(protocol.name, n, t)
            measurements.append(BitsMeasurement(
                protocol=protocol.name,
                n=n,
                t=t,
                scenario=label,
                bits=bits,
                bits_excluding_self=trace.total_bits(include_self=False),
                messages=trace.total_messages(include_self=True),
                paper_bound=bound,
                within_bound=bits <= bound,
            ))
    return measurements


def sweep_bits(settings: Sequence[Tuple[int, int]],
               include_fip: bool = True,
               store: StoreLike = None) -> List[BitsMeasurement]:
    """Measure bits for a sweep of ``(n, t)`` settings.

    ``include_fip=False`` drops the full-information protocol (its per-run cost
    grows as ``n⁴ t²`` and simulation slows down accordingly for large ``n``).
    """
    results: List[BitsMeasurement] = []
    for n, t in settings:
        protocols: List[ActionProtocol] = [MinProtocol(t), BasicProtocol(t)]
        if include_fip:
            protocols.append(OptimalFipProtocol(t))
        results.extend(measure_bits(n, t, protocols, store=store))
    return results


def report(settings: Sequence[Tuple[int, int]] = ((5, 1), (10, 3), (20, 6)),
           include_fip: bool = True,
           store: StoreLike = None) -> str:
    """Render the Proposition 8.1 comparison as a table."""
    measurements = sweep_bits(settings, include_fip=include_fip, store=store)
    table = format_table([m.as_row() for m in measurements],
                         title="E1 / Proposition 8.1 — bits sent per failure-free run")
    notes = [
        "",
        "Paper: P_min sends exactly n^2 bits; P_basic sends O(n^2 t) bits;",
        "a communication-graph FIP sends O(n^4 t^2) bits per run.",
    ]
    return table + "\n" + "\n".join(notes)
