"""Named scenarios from the paper and workload builders for the experiments.

A *scenario* is an initial global state: a preference vector plus a failure
pattern.  This module provides:

* :func:`example_7_1` — the exact scenario of Example 7.1 (``n = 20``,
  ``t = 10``, ten silent faulty agents, everyone prefers 1), plus a scaled-down
  variant used by the fast benchmarks;
* :func:`intro_counterexample` — the run ``r'`` of the introduction that breaks
  naive 0-biased protocols;
* :func:`failure_free_scenarios` — the two failure-free cases of
  Proposition 8.2;
* :func:`random_scenarios` — reproducible random workloads mixing preference
  vectors and ``SO(t)`` adversaries (used by the property tests, the dominance
  study, and the FIP-gap experiment);
* :func:`random_model_scenarios` — the same shape for *any* registered failure
  model (``"general-omission"``, ``"receive-omission"``, ``"crash"``, ...);
* :func:`silent_receiver_scenario`, :func:`partition_scenario`,
  :func:`mixed_chain_scenario` — the named receive-side/general-omission
  scenarios used by the failure-model comparison experiment.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..failures.adversaries import (
    hidden_chain_adversary,
    intro_counterexample_adversary,
    mixed_omission_chain_adversary,
    partition_adversary,
    silent_adversary,
    silent_receiver_adversary,
)
from ..failures.models import FailureModel, SendingOmissionModel, resolve_model
from ..failures.pattern import FailurePattern
from ..simulation.trace import Scenario
from .preferences import SeedLike, all_ones, all_zeros, random_preferences, single_zero


def example_7_1(n: int = 20, t: int = 10, horizon: Optional[int] = None) -> Scenario:
    """The scenario of Example 7.1: ``t`` silent faulty agents, all preferences 1.

    With the default parameters this is exactly the paper's example: agents
    ``0 .. 9`` are faulty and never send a message, everyone starts with 1.
    ``P_opt`` decides in round 3; ``P_min`` and ``P_basic`` wait until round
    ``t + 2 = 12``.  Smaller ``(n, t)`` keep the same shape (round 3 versus
    ``t + 2``) and are used by the fast benchmarks.
    """
    if horizon is None:
        horizon = t + 3
    preferences = all_ones(n)
    pattern = silent_adversary(n, faulty=range(t), horizon=horizon)
    return preferences, pattern


def intro_counterexample(n: int = 3, t: int = 1,
                         faulty_agent: int = 0, confidant: int = 2) -> Scenario:
    """The introduction's Agreement-breaking run for naive 0-biased protocols.

    The faulty agent starts with 0, stays silent, and reveals its preference to
    a single confidant in round ``t + 1`` — exactly when the other agents give
    up waiting and decide 1.
    """
    preferences = tuple(0 if agent == faulty_agent else 1 for agent in range(n))
    pattern = intro_counterexample_adversary(n, reveal_round=t + 1,
                                             faulty_agent=faulty_agent,
                                             confidant=confidant)
    return preferences, pattern


def hidden_chain_scenario(n: int, chain_length: int) -> Scenario:
    """A hidden 0-chain of the given length starting at agent 0.

    Agent 0 prefers 0 and talks only to agent 1, who talks only to agent 2, and
    so on; all other agents prefer 1.  This is the worst case that forces
    undecided agents to keep waiting (the "hidden path" of Castañeda et al.).
    """
    if chain_length + 1 > n:
        raise ValueError("chain cannot involve more agents than the system has")
    chain = tuple(range(chain_length + 1))
    preferences = single_zero(n, holder=0)
    pattern = hidden_chain_adversary(n, chain)
    return preferences, pattern


def failure_free_scenarios(n: int) -> List[Tuple[str, Scenario]]:
    """The two failure-free cases of Proposition 8.2, labelled for reporting."""
    pattern = FailurePattern.failure_free(n)
    return [
        ("some agent prefers 0", (single_zero(n), pattern)),
        ("all agents prefer 1", (all_ones(n), pattern)),
        ("all agents prefer 0", (all_zeros(n), pattern)),
    ]


def random_scenarios(n: int, t: int, count: int, seed: SeedLike = 0,
                     horizon: Optional[int] = None,
                     omission_probability: float = 0.5,
                     zero_probability: float = 0.5) -> List[Scenario]:
    """A reproducible random workload of (preferences, SO(t) pattern) pairs.

    ``seed`` may be an int (the historical behaviour: preferences come from an
    independent ``Random(seed + 1)`` stream, patterns from ``Random(seed)``) or
    a ``random.Random`` instance, in which case everything is drawn from that
    one stream.  The instance form is what parallel workers use to derive
    independent deterministic workloads without relying on ``numpy`` or global
    state: give each worker ``random.Random(worker_index)`` (or a stream
    spawned from a master instance) and its workload is a pure function of
    that stream's state.
    """
    return random_model_scenarios(n, t, count, model=SendingOmissionModel(n=n, t=t),
                                  seed=seed, horizon=horizon,
                                  zero_probability=zero_probability,
                                  omission_probability=omission_probability)


def random_model_scenarios(n: int, t: int, count: int,
                           model: "FailureModel | str" = "sending-omission",
                           seed: SeedLike = 0,
                           horizon: Optional[int] = None,
                           zero_probability: float = 0.5,
                           **sample_kwargs) -> List[Scenario]:
    """A reproducible random workload of (preferences, pattern) pairs for any model.

    The generalisation of :func:`random_scenarios` over the failure-model
    registry: ``model`` is a :class:`~repro.failures.models.FailureModel`
    instance or a registered name, and ``sample_kwargs`` are forwarded to the
    model's ``sample`` (e.g. ``omission_probability=0.3`` for the
    edge-omission models — rejected by ``crash``/``failure-free``, which do
    not sample per edge).  The random streams have the same structure as
    :func:`random_scenarios`, so for the sending-omissions model the two
    functions produce identical workloads from identical seeds.
    """
    if horizon is None:
        horizon = t + 3
    resolved = resolve_model(model, n, t)
    if isinstance(seed, random.Random):
        rng = seed
        preferences = random_preferences(n, count, seed=rng,
                                         zero_probability=zero_probability)
    else:
        rng = random.Random(seed)
        preferences = random_preferences(n, count, seed=seed + 1,
                                         zero_probability=zero_probability)
    scenarios: List[Scenario] = []
    for index in range(count):
        pattern = resolved.sample(rng, horizon, **sample_kwargs)
        scenarios.append((preferences[index], pattern))
    return scenarios


def silent_receiver_scenario(n: int, k: int, horizon: Optional[int] = None) -> Scenario:
    """``k`` deaf faulty agents in an otherwise all-ones run (``RO(k)``).

    Agents ``0 .. k - 1`` drop every incoming message; since everything they
    *send* is delivered, the nonfaulty majority still hears their preferences
    — the information asymmetry is the reverse of Example 7.1's silent
    senders.
    """
    if horizon is None:
        horizon = k + 3
    pattern = silent_receiver_adversary(n, faulty=range(k), horizon=horizon)
    return all_ones(n), pattern


def partition_scenario(n: int, k: int, horizon: Optional[int] = None) -> Scenario:
    """``k`` faulty agents partitioned off from the rest, holding the only 0s (``GO(k)``).

    The isolated group starts with preference 0; because the cut severs both
    directions, the rest of the system never hears about the 0s and the
    isolated agents never hear the 1s — the scenario that separates general
    omissions from both ``SO(t)`` (where the group would still hear) and
    ``RO(t)`` (where the group would still be heard).
    """
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n isolated agents")
    if horizon is None:
        horizon = k + 3
    preferences = tuple(0 if agent < k else 1 for agent in range(n))
    pattern = partition_adversary(n, isolated=range(k), horizon=horizon)
    return preferences, pattern


def mixed_chain_scenario(n: int, chain_length: int,
                         horizon: Optional[int] = None) -> Scenario:
    """A mixed send/receive omission chain starting at a 0-preferring agent (``GO``).

    Agent 0 prefers 0 and both talks only forward along the chain and listens
    only backward; all other agents prefer 1.  The general-omission analogue
    of :func:`hidden_chain_scenario`.
    """
    if chain_length > n:
        raise ValueError("chain cannot involve more agents than the system has")
    chain = tuple(range(chain_length))
    preferences = single_zero(n, holder=0)
    pattern = mixed_omission_chain_adversary(n, chain, horizon=horizon)
    return preferences, pattern


def silent_fault_sweep(n: int, t: int, horizon: Optional[int] = None) -> List[Tuple[int, Scenario]]:
    """For ``k = 0 .. t`` silent faulty agents: the all-ones scenario with ``k`` silent agents.

    Used by the Example 7.1 sweep: the FIP's common-knowledge rule triggers as
    soon as the silent agents pin down the full faulty set (``k = t``), while
    for ``k < t`` all three protocols wait.
    """
    if horizon is None:
        horizon = t + 3
    sweep: List[Tuple[int, Scenario]] = []
    for k in range(t + 1):
        pattern = silent_adversary(n, faulty=range(k), horizon=horizon)
        sweep.append((k, (all_ones(n), pattern)))
    return sweep
