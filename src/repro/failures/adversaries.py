"""Named adversary constructions used by the paper's arguments and experiments.

These helpers construct specific failure patterns (or families of patterns)
that appear in the paper:

* ``silent_adversary`` — the Example 7.1 adversary: a set of faulty agents that
  never send a single message.
* ``intro_counterexample_adversary`` — the run ``r'`` from the introduction
  that breaks naive 0-biased protocols: a single faulty agent stays silent for
  ``k - 1`` rounds and then reveals its preference to exactly one agent.
* ``hidden_chain_adversary`` — a "hidden path" adversary: a chain of faulty
  agents each of which only talks to the next agent in the chain, producing
  late 0-decisions and forcing undecided agents to wait.
* ``random_omission_adversaries`` — an iterator of random ``SO(t)`` patterns.
* ``crash_staircase_adversary`` — the classical worst-case crash schedule where
  one agent crashes per round.

and the receive-side constructions that the general/receive-omission models
(``GO(t)`` / ``RO(t)``) open up:

* ``silent_receiver_adversary`` — faulty agents that hear nothing (the
  receive-side mirror of ``silent_adversary``);
* ``partition_adversary`` — a general-omission cut: a faulty group is severed
  from the rest in both directions (their sends are dropped as sending
  omissions, their receives as receive omissions);
* ``mixed_omission_chain_adversary`` — a chain of faulty agents each of which
  only *talks to* its successor and only *listens to* its predecessor.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence

from ..core.errors import ConfigurationError
from ..core.types import AgentId
from .models import CrashModel, SendingOmissionModel
from .pattern import FailurePattern


def silent_adversary(n: int, faulty: Iterable[AgentId], horizon: int) -> FailurePattern:
    """Faulty agents that never send any message (Example 7.1 when ``|faulty| = t``)."""
    return FailurePattern.silent(n=n, faulty=faulty, horizon=horizon)


def intro_counterexample_adversary(n: int, reveal_round: int,
                                   faulty_agent: AgentId = 0,
                                   confidant: AgentId = 2) -> FailurePattern:
    """The adversary of the introduction's impossibility argument.

    Agent ``faulty_agent`` is faulty, sends nothing up to round ``reveal_round``
    (time index ``reveal_round - 1``), and in round ``reveal_round`` sends a
    message only to ``confidant``.  With a naive 0-biased protocol this makes
    ``confidant`` decide 0 while agents that never hear about the 0 decide 1.

    Parameters
    ----------
    n:
        Number of agents (must be at least 3 for the argument to apply).
    reveal_round:
        The 1-based round in which the single message to ``confidant`` gets
        through.  All of the faulty agent's other messages, in all rounds up to
        and including ``reveal_round`` and for a generous horizon afterwards,
        are blocked.
    faulty_agent, confidant:
        The identities of the faulty agent and the single agent it talks to.
    """
    if n < 3:
        raise ConfigurationError("the introduction's counterexample needs at least 3 agents")
    if faulty_agent == confidant:
        raise ConfigurationError("the faulty agent must confide in a different agent")
    if reveal_round < 1:
        raise ConfigurationError("reveal_round is 1-based and must be >= 1")
    horizon = reveal_round + n + 2
    omissions = set()
    for round_index in range(horizon):
        for receiver in range(n):
            if receiver == faulty_agent:
                continue
            if round_index == reveal_round - 1 and receiver == confidant:
                continue  # the one message that gets through
            omissions.add((round_index, faulty_agent, receiver))
    return FailurePattern(n=n, faulty=frozenset({faulty_agent}),
                          omissions=frozenset(omissions))


def hidden_chain_adversary(n: int, chain: Sequence[AgentId], horizon: Optional[int] = None) -> FailurePattern:
    """A hidden 0-chain: each chain agent talks only to the next chain agent.

    ``chain[0]`` should be given initial preference 0 by the workload.  In round
    ``k + 1`` agent ``chain[k]`` (which decides 0 in that round under the
    paper's protocols) delivers its decide-0 notification only to
    ``chain[k + 1]``; every other message from the chain agents is blocked.
    All chain agents except possibly the last are faulty.

    This produces the "hidden path" structure that forces other agents to wait
    the full ``t + 1`` rounds before they can safely decide 1.
    """
    if len(set(chain)) != len(chain):
        raise ConfigurationError("chain agents must be distinct")
    for agent in chain:
        if not 0 <= agent < n:
            raise ConfigurationError(f"chain agent {agent} outside 0..{n - 1}")
    faulty = frozenset(chain[:-1]) if len(chain) > 1 else frozenset()
    if horizon is None:
        horizon = len(chain) + 2
    omissions = set()
    for position, agent in enumerate(chain[:-1]):
        successor = chain[position + 1]
        for round_index in range(horizon):
            for receiver in range(n):
                if receiver == agent:
                    continue
                if round_index == position and receiver == successor:
                    continue  # the chain link that survives
                omissions.add((round_index, agent, receiver))
    return FailurePattern(n=n, faulty=faulty, omissions=frozenset(omissions))


def crash_staircase_adversary(n: int, t: int, horizon: Optional[int] = None) -> FailurePattern:
    """The classical worst case for crash consensus: one crash per round.

    Agent ``k`` (for ``k < t``) crashes in round ``k + 1`` after reaching only
    agent ``k + 1``.  This is the schedule that forces ``t + 1`` rounds for
    simultaneous agreement; for EBA it produces long decision chains.
    """
    if t >= n:
        raise ConfigurationError("need t < n")
    model = CrashModel(n=n, t=t)
    if horizon is None:
        horizon = t + 2
    crashes = {}
    for k in range(t):
        reached = [(k + 1) % n]
        crashes[k] = (k, reached)
    return model.crash_pattern(crashes, horizon)


def silent_receiver_adversary(n: int, faulty: Iterable[AgentId], horizon: int,
                              from_round: int = 0) -> FailurePattern:
    """Faulty agents that never receive any message (``RO(t)``'s worst case).

    The receive-side mirror of :func:`silent_adversary`: the agents in
    ``faulty`` drop every incoming message from rounds ``from_round`` to
    ``horizon - 1`` while their own messages go through.  Everything the rest
    of the system learns still reaches everyone nonfaulty, but the deaf agents
    act on their initial preference alone.
    """
    return FailurePattern.deaf(n=n, faulty=faulty, horizon=horizon, from_round=from_round)


def partition_adversary(n: int, isolated: Iterable[AgentId], horizon: int,
                        from_round: int = 0) -> FailurePattern:
    """A general-omission cut: the ``isolated`` (faulty) group is severed from the rest.

    For rounds ``from_round .. horizon - 1`` no message crosses the cut in
    either direction: messages *from* an isolated agent to the rest are
    dropped as sending omissions, messages *to* an isolated agent from the
    rest as receive omissions — every blocked edge is charged to its isolated
    endpoint, so the pattern belongs to ``GO(|isolated|)``.  Communication
    within each side is untouched, which makes this the canonical
    "network partition" scenario general omissions can express and ``SO(t)``
    cannot (under ``SO(t)`` the isolated group would still hear everything).
    """
    isolated_set = frozenset(isolated)
    for agent in isolated_set:
        if not 0 <= agent < n:
            raise ConfigurationError(f"isolated agent {agent} outside 0..{n - 1}")
    if not isolated_set:
        return FailurePattern.failure_free(n)
    rest = [agent for agent in range(n) if agent not in isolated_set]
    send = set()
    receive = set()
    for round_index in range(from_round, horizon):
        for inside in isolated_set:
            for outside in rest:
                send.add((round_index, inside, outside))
                receive.add((round_index, outside, inside))
    return FailurePattern(n=n, faulty=isolated_set, omissions=frozenset(send),
                          receive_omissions=frozenset(receive))


def mixed_omission_chain_adversary(n: int, chain: Sequence[AgentId],
                                   horizon: Optional[int] = None) -> FailurePattern:
    """A chain of faulty agents, each talking only forward and listening only backward.

    Agent ``chain[k]`` delivers its messages only to ``chain[k + 1]`` (all
    other sends are dropped as sending omissions) and accepts messages only
    from ``chain[k - 1]`` (all other receives are dropped as receive
    omissions).  Every chain agent is faulty, so the pattern belongs to
    ``GO(len(chain))``.  Information can still flow along the chain — the
    general-omission cousin of :func:`hidden_chain_adversary`, with the
    receive side closed as well, so not even the chain's members learn what
    the rest of the system knows.
    """
    if len(set(chain)) != len(chain):
        raise ConfigurationError("chain agents must be distinct")
    for agent in chain:
        if not 0 <= agent < n:
            raise ConfigurationError(f"chain agent {agent} outside 0..{n - 1}")
    if horizon is None:
        horizon = len(chain) + 2
    chain_set = frozenset(chain)
    send = set()
    receive = set()
    for position, agent in enumerate(chain):
        successor = chain[position + 1] if position + 1 < len(chain) else None
        predecessor = chain[position - 1] if position > 0 else None
        for round_index in range(horizon):
            for other in range(n):
                if other == agent:
                    continue
                if other != successor:
                    send.add((round_index, agent, other))
                # Receive omissions by `agent` from senders outside the chain
                # link; edges whose sender is a chain agent are already dropped
                # by that sender, so charge them once (to the sender).
                if other != predecessor and other not in chain_set:
                    receive.add((round_index, other, agent))
    return FailurePattern(n=n, faulty=chain_set, omissions=frozenset(send),
                          receive_omissions=frozenset(receive))


def random_omission_adversaries(n: int, t: int, horizon: int, count: int,
                                seed: int = 0,
                                omission_probability: float = 0.5,
                                num_faulty: Optional[int] = None) -> List[FailurePattern]:
    """A reproducible list of random ``SO(t)`` adversaries."""
    model = SendingOmissionModel(n=n, t=t)
    rng = random.Random(seed)
    return [
        model.sample(rng, horizon, omission_probability=omission_probability,
                     num_faulty=num_faulty)
        for _ in range(count)
    ]
