"""Differential tests: the bit-packed ``CommGraph`` against the naive oracle.

:mod:`naive_commgraph` keeps the dict-plus-frozenset representation the
library used before it packed edge labels into two ints.  Over seeded
full-information runs at n = 3 and n = 4 (sending and general omissions, and
one run with a self-edge omission), the
naive graphs are rebuilt alongside the simulated ones by replaying each
round's deliveries through the oracle's ``advance``, and every query must
agree at every point: labels, labelled edges, preferences, hears-from
frontiers, cone restrictions, known / distributed faulty sets, known values,
equality and hashing, and pickling (equal graphs pickle to identical bytes).
The replay also checks the precondition that makes the packed merge a plain
OR: the graphs merged in one ``advance`` never disagree on a shared edge.
"""

from __future__ import annotations

import itertools
import pickle
from typing import Dict, List, Tuple

import pytest

from naive_commgraph import CommGraph as NaiveCommGraph, labels_of
from repro.exchange import CommGraph
from repro.failures import FailurePattern
from repro.protocols import OptimalFipProtocol
from repro.simulation import simulate
from repro.workloads.scenarios import random_model_scenarios

#: (n, t, failure model, seed): eight random runs each, horizon t + 3, plus one
#: run whose faulty agent also stops hearing itself (a self-edge omission).
CASES = [
    (3, 1, "sending-omission", 11),
    (3, 2, "general-omission", 12),
    (4, 1, "sending-omission", 13),
    (4, 2, "general-omission", 14),
]

Point = Tuple[int, int]  # (agent, time)


def _replay(n: int, t: int, model: str, seed: int):
    """Yield ``(packed, naive)`` per run: its graphs keyed by (agent, time)."""
    scenarios = random_model_scenarios(n, t, 8, model=model, seed=seed)
    scenarios.append(([1] * n, FailurePattern.silent(n, [0], t + 3, from_round=1, include_self=True)))
    for preferences, pattern in scenarios:
        trace = simulate(OptimalFipProtocol(t), n, preferences, pattern)
        packed: Dict[Point, CommGraph] = {}
        naive: Dict[Point, NaiveCommGraph] = {}
        for agent in range(n):
            packed[agent, 0] = trace.state_of(agent, 0).graph
            naive[agent, 0] = NaiveCommGraph.initial(n, agent, preferences[agent])
        for time in range(trace.horizon):
            delivered = trace.rounds[time].delivered
            for receiver in range(n):
                received = [naive[sender, time] if delivered[receiver][sender] is not None
                            else None for sender in range(n)]
                _assert_mergeable([naive[receiver, time]] + [g for g in received if g])
                naive[receiver, time + 1] = naive[receiver, time].advance(receiver, received)
                packed[receiver, time + 1] = trace.state_of(receiver, time + 1).graph
        yield packed, naive


def _assert_mergeable(graphs: List[NaiveCommGraph]) -> None:
    seen: Dict[Tuple[int, int, int], bool] = {}
    for graph in graphs:
        for (m, s, r, flag) in graph.labelled_edges():
            assert seen.setdefault((m, s, r), flag) == flag, (m, s, r)


def _same_graph(packed: CommGraph, naive: NaiveCommGraph) -> None:
    assert (packed.n, packed.time) == (naive.n, naive.time)
    assert labels_of(packed) == naive.labelled_edges()
    assert [packed.preference(j) for j in range(packed.n)] == \
        [naive.preference(j) for j in range(naive.n)]
    assert packed.known_preferences() == naive.known_preferences()
    assert packed.bit_size() == naive.bit_size()


@pytest.fixture(scope="module", params=CASES, ids=lambda case: f"n{case[0]}-t{case[1]}-{case[2]}")
def runs(request):
    return list(_replay(*request.param))


class TestQueriesAgree:
    def test_graphs_and_labels(self, runs):
        for packed, naive in runs:
            for point, graph in packed.items():
                oracle = naive[point]
                _same_graph(graph, oracle)
                n = graph.n
                for m, s, r in itertools.product(range(-1, graph.time + 1), range(n), range(n)):
                    assert graph.label(m, s, r) == oracle.label(m, s, r), (point, m, s, r)

    def test_heard_frontier_and_known_values(self, runs):
        for packed, naive in runs:
            for point, graph in packed.items():
                oracle = naive[point]
                for agent, time in itertools.product(range(graph.n), range(graph.time + 1)):
                    assert graph.heard_frontier(agent, time) == oracle.heard_frontier(agent, time)
                    assert graph.known_values(agent, time) == oracle.known_values(agent, time)
                assert graph.heard_frontier(point[0]) == oracle.heard_frontier(point[0])

    def test_restrict(self, runs):
        for packed, naive in runs:
            for point, graph in packed.items():
                oracle = naive[point]
                for agent, time in itertools.product(range(graph.n), range(graph.time + 1)):
                    _same_graph(graph.restrict(agent, time), oracle.restrict(agent, time))

    def test_failure_knowledge(self, runs):
        for packed, naive in runs:
            for point, graph in packed.items():
                oracle = naive[point]
                n = graph.n
                for agent, time in itertools.product(range(n), range(graph.time + 1)):
                    assert graph.known_faulty(agent, time) == oracle.known_faulty(agent, time)
                for size, time in itertools.product(range(n + 1), range(graph.time + 1)):
                    for group in itertools.combinations(range(n), size):
                        assert graph.distributed_faulty(group, time) == \
                            oracle.distributed_faulty(group, time)


class TestValueObjectsAgree:
    def test_equality_and_hash(self, runs):
        packed_graphs: List[CommGraph] = []
        naive_graphs: List[NaiveCommGraph] = []
        for packed, naive in runs:
            for point, graph in packed.items():
                packed_graphs.append(graph)
                naive_graphs.append(naive[point])
                # Cone restrictions are separately built objects that often
                # equal a graph held elsewhere in the run.
                packed_graphs.append(graph.restrict(0, graph.time // 2))
                naive_graphs.append(naive[point].restrict(0, graph.time // 2))
        for i, j in itertools.combinations(range(len(packed_graphs)), 2):
            equal = packed_graphs[i] == packed_graphs[j]
            assert equal == (naive_graphs[i] == naive_graphs[j])
            if equal:
                assert hash(packed_graphs[i]) == hash(packed_graphs[j])

    def test_pickle_round_trip_is_canonical(self, runs):
        for packed, naive in runs:
            for point, graph in packed.items():
                data = pickle.dumps(graph)
                assert pickle.loads(data) == graph
                _same_graph(pickle.loads(data), naive[point])
                # An equal graph built another way pickles to identical bytes.
                rebuilt = CommGraph(graph.n, graph.time,
                                    [graph.preference(j) for j in range(graph.n)],
                                    reversed(sorted(labels_of(graph))))
                assert rebuilt == graph
                assert pickle.dumps(rebuilt) == data

    def test_oracle_pickles_load_as_packed_graphs(self, runs):
        # The naive graph pickled through the public constructor's arguments
        # (n, time, prefs, sorted labels), so those still rebuild equal graphs.
        for packed, naive in runs:
            for point, graph in packed.items():
                _cls, args = naive[point].__reduce__()
                assert CommGraph(*args) == graph
