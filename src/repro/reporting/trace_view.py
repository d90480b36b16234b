"""Human-readable rendering of runs.

These helpers turn a :class:`~repro.simulation.trace.RunTrace` into plain text
for debugging, teaching, and the CLI:

* :func:`render_run` — a round-by-round account of who decided what, who sent
  what, and which messages the adversary dropped;
* :func:`render_decision_timeline` — one line per agent with its decision round
  marked on a time axis.
"""

from __future__ import annotations

from typing import List, Optional

from ..exchange.messages import DecideNotification, GraphMessage, InitOneHeartbeat
from ..simulation.trace import RunTrace


def _message_symbol(message) -> str:
    """A compact symbol for a message in the round-by-round view."""
    if message is None:
        return "·"
    if isinstance(message, DecideNotification):
        return str(message.value)
    if isinstance(message, InitOneHeartbeat):
        return "h"
    if isinstance(message, GraphMessage):
        return "G"
    return "?"


def render_run(trace: RunTrace, max_rounds: Optional[int] = None) -> str:
    """Render a run as a round-by-round report.

    Each round shows the actions performed and, for every sender, the row of
    per-receiver message symbols after the failure pattern was applied
    (``·`` = nothing received, ``0``/``1`` = decide notification, ``h`` =
    ``(init, 1)`` heartbeat, ``G`` = communication graph, ``x`` = dropped by the
    adversary).
    """
    lines: List[str] = []
    lines.append(f"run of {trace.protocol_name} over {trace.exchange_name}, n={trace.n}")
    lines.append(f"preferences : {list(trace.preferences)}")
    lines.append(f"adversary   : {trace.pattern.describe()}")
    lines.append("")
    rounds = trace.rounds if max_rounds is None else trace.rounds[:max_rounds]
    for record in rounds:
        decisions = [
            f"agent {agent} decides {action.value}"
            for agent, action in enumerate(record.actions)
            if action.is_decision
        ]
        lines.append(f"round {record.round_number}:"
                     + (" " + "; ".join(decisions) if decisions else " (no decisions)"))
        for sender in range(trace.n):
            row = []
            for receiver in range(trace.n):
                sent = record.sent[sender][receiver]
                delivered = record.delivered[receiver][sender]
                if sent is not None and delivered is None:
                    row.append("x")
                else:
                    row.append(_message_symbol(delivered))
            lines.append(f"    {sender} -> [{' '.join(row)}]")
    lines.append("")
    lines.append(render_decision_timeline(trace))
    return "\n".join(lines)


def render_decision_timeline(trace: RunTrace) -> str:
    """One line per agent showing when (and what) it decided.

    Example::

        agent 0 |D0 .  .  .  | decided 0 in round 1
        agent 1 |.  D0 .  .  | decided 0 in round 2
    """
    lines: List[str] = []
    horizon = trace.horizon
    for agent in range(trace.n):
        round_number = trace.decision_round(agent)
        value = trace.decision_value(agent)
        cells = []
        for r in range(1, horizon + 1):
            if round_number == r:
                cells.append(f"D{value}")
            else:
                cells.append(". ")
        marker = "*" if agent in trace.pattern.faulty else " "
        if round_number is None:
            note = "never decides"
        else:
            note = f"decided {value} in round {round_number}"
        lines.append(f"agent {agent}{marker} |{' '.join(cells)}| {note}")
    if trace.pattern.faulty:
        lines.append("(* = faulty agent)")
    return "\n".join(lines)
