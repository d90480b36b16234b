"""Tests for the generalized failure-model subsystem (receive/general omissions).

Covers the receive-omission events on ``FailurePattern``, the model registry,
the ``RO(t)`` / ``GO(t)`` models' validate/sample/enumerate machinery, the
receive-side adversaries, and the differential guarantee that ``GO(t)``
restricted to send-only events reproduces ``SO(t)`` systems byte-identically.
"""

import itertools
import pickle
import random

import pytest

from repro.core.errors import ConfigurationError, FailureModelError
from repro.failures import (
    CrashModel,
    FailureFreeModel,
    FailurePattern,
    GeneralOmissionModel,
    ReceiveOmissionModel,
    SendingOmissionModel,
    available_models,
    make_model,
    mixed_omission_chain_adversary,
    model_class,
    partition_adversary,
    register_model,
    resolve_model,
    silent_receiver_adversary,
)
from repro.protocols import MinProtocol, OptimalFipProtocol
from repro.simulation import simulate
from repro.systems import build_system, gamma_min
from repro.workloads import (
    mixed_chain_scenario,
    partition_scenario,
    random_model_scenarios,
    random_scenarios,
    silent_receiver_scenario,
)


class TestReceiveOmissionEvents:
    def test_receiver_must_be_faulty(self):
        with pytest.raises(FailureModelError):
            FailurePattern(n=3, faulty=frozenset(),
                           receive_omissions=frozenset({(0, 1, 2)}))

    def test_sender_need_not_be_faulty(self):
        pattern = FailurePattern(n=3, faulty=frozenset({2}),
                                 receive_omissions=frozenset({(0, 1, 2)}))
        assert not pattern.delivered(0, 1, 2)
        assert pattern.delivered(0, 1, 0)

    def test_out_of_range_agents_rejected(self):
        with pytest.raises(FailureModelError):
            FailurePattern(n=3, faulty=frozenset({1}),
                           receive_omissions=frozenset({(0, 5, 1)}))

    def test_delivered_consults_both_event_kinds(self):
        pattern = FailurePattern(n=3, faulty=frozenset({0, 1}),
                                 omissions=frozenset({(0, 0, 2)}),
                                 receive_omissions=frozenset({(1, 2, 1)}))
        assert not pattern.delivered(0, 0, 2)   # send omission
        assert not pattern.delivered(1, 2, 1)   # receive omission
        assert pattern.delivered(0, 2, 1)
        assert pattern.all_blocked == frozenset({(0, 0, 2), (1, 2, 1)})

    def test_blocked_senders_and_deaf_receivers(self):
        pattern = FailurePattern.deaf(4, faulty=[2], horizon=2)

        def deaf_agents(round_index):
            return {receiver for receiver in range(4)
                    if not any(pattern.delivered(round_index, sender, receiver)
                               for sender in range(4) if sender != receiver)}

        assert {s for s in range(4) if not pattern.delivered(0, s, 2)} == {0, 1, 3}
        assert deaf_agents(0) == {2}
        assert deaf_agents(5) == set()

    def test_exhibits_faulty_behaviour_via_receives(self):
        pattern = FailurePattern.from_receive_blocked(3, [(0, 1, 2)])
        trace = simulate(OptimalFipProtocol(1), 3, [1, 1, 1], pattern, horizon=1)
        (record,) = trace.rounds
        assert record.sent[1][2] is not None and record.delivered[2][1] is None
        assert all(record.delivered[receiver][sender] is not None
                   for sender in range(3) for receiver in range(3)
                   if (sender, receiver) != (1, 2))
        # The lost message is charged to the receiver, so only RO/GO admit it.
        assert ReceiveOmissionModel(n=3, t=1).admits(pattern)
        assert not SendingOmissionModel(n=3, t=1).admits(pattern)
        assert simulate(OptimalFipProtocol(1), 3, [1, 1, 1], pattern, horizon=0).rounds == []

    def test_pickle_round_trip_is_canonical(self):
        a = FailurePattern(n=4, faulty=frozenset({1, 2}),
                           omissions=frozenset({(0, 1, 3), (1, 1, 0)}),
                           receive_omissions=frozenset({(0, 3, 2), (2, 0, 2)}))
        b = FailurePattern(n=4, faulty=frozenset({2, 1}),
                           omissions=frozenset({(1, 1, 0), (0, 1, 3)}),
                           receive_omissions=frozenset({(2, 0, 2), (0, 3, 2)}))
        assert a == b
        assert pickle.dumps(a) == pickle.dumps(b)
        assert pickle.loads(pickle.dumps(a)) == a

    def test_with_and_without_receive_omission(self):
        base = FailurePattern(n=3, faulty=frozenset({2}))
        extended = FailurePattern(n=3, faulty=frozenset({2}),
                                  receive_omissions=frozenset({(1, 0, 2)}))
        assert extended.faulty == frozenset({2})
        assert not extended.delivered(1, 0, 2)
        assert base.delivered(1, 0, 2)
        model = ReceiveOmissionModel(n=3, t=1)
        assert model.admits(base) and model.admits(extended)

    def test_swap_roles_swaps_the_charged_receiver(self):
        pattern = FailurePattern.from_receive_blocked(4, [(0, 1, 2), (1, 3, 2)])
        swapped = FailurePattern.from_receive_blocked(4, [(0, 1, 0), (1, 3, 0)])
        assert swapped.faulty == frozenset({0})
        assert not swapped.delivered(0, 1, 0)
        assert not swapped.delivered(1, 3, 0)
        assert swapped.delivered(0, 1, 2)
        # Exchanging the names of agents 0 and 2 maps one run onto the other.
        before, after = (simulate(OptimalFipProtocol(1), 4, [1, 1, 1, 1], p, horizon=3)
                         for p in (pattern, swapped))
        rename = [2, 1, 0, 3]
        assert all(before.decisions()[agent] == after.decisions()[rename[agent]]
                   for agent in range(4))

    def test_restrict_to_filters_receive_omissions(self):
        pattern = FailurePattern.from_receive_blocked(3, [(0, 1, 2), (5, 1, 2)])
        assert pattern.max_round() == 5
        # A run of three rounds only meets the round-1 receive omission.
        trace = simulate(OptimalFipProtocol(1), 3, [1, 1, 1], pattern, horizon=3)
        lost = {(record.round_index, sender, receiver) for record in trace.rounds
                for sender in range(3) for receiver in range(3)
                if record.delivered[receiver][sender] is None}
        assert lost == {(0, 1, 2)}

    def test_send_restriction_drops_receive_events_only(self):
        pattern = FailurePattern(n=3, faulty=frozenset({0, 1}),
                                 omissions=frozenset({(0, 0, 2)}),
                                 receive_omissions=frozenset({(0, 2, 1)}))
        restricted = FailurePattern(n=3, faulty=pattern.faulty, omissions=pattern.omissions)
        so, go = SendingOmissionModel(n=3, t=2), GeneralOmissionModel(n=3, t=2)
        assert go.admits(pattern) and not so.admits(pattern)
        assert so.admits(restricted) and go.admits(restricted)
        assert restricted.all_blocked == pattern.omissions

    def test_describe_mentions_receives(self):
        pattern = FailurePattern.from_receive_blocked(3, [(0, 1, 2)])
        assert "blocked receives" in pattern.describe()

    def test_iteration_yields_union_sorted(self):
        pattern = FailurePattern(n=3, faulty=frozenset({1, 2}),
                                 omissions=frozenset({(1, 1, 0)}),
                                 receive_omissions=frozenset({(0, 0, 2)}))
        assert list(pattern) == [(0, 0, 2), (1, 1, 0)]


class TestRegistry:
    def test_available_models(self):
        assert available_models() == ("sending-omission", "receive-omission",
                                      "general-omission", "crash", "failure-free")

    def test_aliases_resolve(self):
        assert model_class("so") is SendingOmissionModel
        assert model_class("RO") is ReceiveOmissionModel
        assert model_class("go") is GeneralOmissionModel

    def test_make_model(self):
        assert make_model("general-omission", 4, 2) == GeneralOmissionModel(n=4, t=2)
        assert make_model("failure-free", 4) == FailureFreeModel(4)
        assert make_model("crash", 5, 1).name == "Crash(1)"

    def test_unknown_name_raises_naming_choices(self):
        with pytest.raises(ConfigurationError, match="general-omission"):
            make_model("byzantine", 4, 1)

    def test_failure_free_rejects_nonzero_t(self):
        with pytest.raises(ConfigurationError):
            make_model("failure-free", 4, 1)

    def test_resolve_model_checks_n_and_t(self):
        model = GeneralOmissionModel(n=4, t=2)
        assert resolve_model(model, 4, 2) is model
        with pytest.raises(ConfigurationError):
            resolve_model(model, 5, 2)
        with pytest.raises(ConfigurationError):
            resolve_model(model, 4, 3)
        # A looser instance bound is rejected too: the context would otherwise
        # enumerate more faulty agents than its declared t.
        with pytest.raises(ConfigurationError):
            resolve_model(model, 4, 1)

    def test_contexts_reject_mismatched_model_bounds(self):
        with pytest.raises(ConfigurationError):
            gamma_min(3, 1, failure_model=GeneralOmissionModel(n=3, t=2))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_model("so")(GeneralOmissionModel)


class TestReceiveOmissionModel:
    def test_rejects_send_omissions(self):
        model = ReceiveOmissionModel(n=3, t=1)
        assert not model.admits(FailurePattern.from_blocked(3, [(0, 1, 2)]))
        assert model.admits(FailurePattern.from_receive_blocked(3, [(0, 1, 2)]))

    def test_enumeration_count_matches_formula(self):
        model = ReceiveOmissionModel(n=3, t=1)
        patterns = list(model.enumerate(horizon=1))
        # 1 failure-free + 3 choices of faulty agent * 2^(1 round * 2 senders)
        assert len(patterns) == 1 + 3 * 4
        assert len(patterns) == model.count_patterns(horizon=1)
        assert len(set(patterns)) == len(patterns)
        assert all(model.admits(p) for p in patterns)
        assert all(not p.omissions for p in patterns)

    def test_sample_is_admissible_and_reproducible(self):
        model = ReceiveOmissionModel(n=5, t=2)
        first = model.sample(random.Random(7), horizon=3)
        second = model.sample(random.Random(7), horizon=3)
        assert first == second
        assert model.admits(first)

    def test_mirror_of_so_enumeration(self):
        """RO's patterns are exactly SO's with the two event charges transposed."""
        so = SendingOmissionModel(n=3, t=1)
        ro = ReceiveOmissionModel(n=3, t=1)
        transposed = sorted(
            FailurePattern(
                n=3, faulty=p.faulty,
                receive_omissions=frozenset((m, j, i) for (m, i, j) in p.omissions),
            ).sort_key()
            for p in so.enumerate(horizon=2)
        )
        assert transposed == sorted(p.sort_key() for p in ro.enumerate(horizon=2))


class TestGeneralOmissionModel:
    def test_admits_both_event_kinds(self):
        model = GeneralOmissionModel(n=3, t=2)
        pattern = FailurePattern(n=3, faulty=frozenset({0, 1}),
                                 omissions=frozenset({(0, 0, 2)}),
                                 receive_omissions=frozenset({(0, 2, 1)}))
        assert model.admits(pattern)
        assert model.admits(FailurePattern.from_blocked(3, [(0, 1, 2)]))
        assert model.admits(FailurePattern.from_receive_blocked(3, [(0, 1, 2)]))

    def test_enumeration_count_and_uniqueness(self):
        model = GeneralOmissionModel(n=3, t=1)
        patterns = list(model.enumerate(horizon=1))
        # 1 + 3 faulty choices * 2^(2 send slots + 2 receive slots from the
        # nonfaulty senders)
        assert len(patterns) == 1 + 3 * 16
        assert len(patterns) == model.count_patterns(horizon=1)
        assert len(set(patterns)) == len(patterns)
        assert all(model.admits(p) for p in patterns)

    def test_enumeration_has_no_delivery_equivalent_duplicates(self):
        """No two enumerated patterns with the same faulty set block the same edges."""
        model = GeneralOmissionModel(n=3, t=2)
        seen = set()
        for pattern in model.enumerate(horizon=1, max_faulty=2):
            key = (pattern.faulty, pattern.all_blocked)
            assert key not in seen
            seen.add(key)

    def test_send_only_restriction_reproduces_so_systems_byte_identically(self):
        """GO(t) with no receive events == SO(t), down to the pickled system bytes."""
        n, t, horizon = 3, 1, 2
        go = GeneralOmissionModel(n=n, t=t)
        so = SendingOmissionModel(n=n, t=t)
        go_send_only = sorted(
            (p for p in go.enumerate(horizon) if not p.receive_omissions),
            key=FailurePattern.sort_key,
        )
        so_patterns = sorted(so.enumerate(horizon), key=FailurePattern.sort_key)
        assert go_send_only == so_patterns
        system_go = build_system(MinProtocol(t), n, horizon, go_send_only)
        system_so = build_system(MinProtocol(t), n, horizon, so_patterns)
        assert pickle.dumps(system_go.runs) == pickle.dumps(system_so.runs)

    def test_sample_is_admissible(self):
        model = GeneralOmissionModel(n=4, t=2)
        for seed in range(10):
            assert model.admits(model.sample(random.Random(seed), horizon=3))


class TestEnumerationMatchesCount:
    """``count_patterns`` is the closed form of ``enumerate``: the service's
    theorem-size bound and the run counts rest on it, so it must equal the
    length of a duplicate-free enumeration, with and without ``max_faulty``."""

    @pytest.mark.parametrize("model, horizon", [
        (SendingOmissionModel(n=3, t=1), 2),
        (ReceiveOmissionModel(n=3, t=1), 2),
        (GeneralOmissionModel(n=3, t=1), 2),
        (SendingOmissionModel(n=4, t=2), 2),
        (SendingOmissionModel(n=4, t=1), 3),
        (GeneralOmissionModel(n=3, t=2), 1),
    ], ids=lambda value: getattr(value, "name", f"h{value}"))
    def test_enumeration_is_exactly_the_closed_form_count(self, model, horizon):
        patterns = list(model.enumerate(horizon))
        assert len(set(patterns)) == len(patterns) == model.count_patterns(horizon)
        capped = list(model.enumerate(horizon, max_faulty=1))
        assert len(capped) == model.count_patterns(horizon, max_faulty=1)
        assert all(len(pattern.faulty) <= 1 for pattern in capped)


def _oracle_enumerate(model, horizon, max_faulty=None):
    """The product-of-masks enumeration, every pattern built with full validation."""
    bound = model.t if max_faulty is None else min(model.t, max_faulty)
    for size in range(bound + 1):
        for faulty in itertools.combinations(range(model.n), size):
            send_slots, receive_slots = model.slots(faulty, horizon)
            num_send = len(send_slots)
            for mask in itertools.product((False, True),
                                          repeat=num_send + len(receive_slots)):
                yield FailurePattern(
                    n=model.n, faulty=frozenset(faulty),
                    omissions=frozenset(itertools.compress(send_slots, mask[:num_send])),
                    receive_omissions=frozenset(
                        itertools.compress(receive_slots, mask[num_send:])))


def _assert_rounds_group_all_blocked(pattern):
    """``blocked_by_round`` is ``all_blocked`` grouped by round (past its end: nothing)."""
    by_round = list(pattern.blocked_by_round)
    rounds = max(len(by_round), pattern.max_round() + 1)
    grouped = [set() for _ in range(rounds)]
    for (round_index, sender, receiver) in pattern.all_blocked:
        grouped[round_index].add((sender, receiver))
    assert by_round + [frozenset()] * (rounds - len(by_round)) == grouped, pattern
    assert all(type(edges) is frozenset for edges in by_round)


#: Every SO/RO/GO size at n=3/4, t=1/2, horizons 1-3, with and without
#: ``max_faulty=1``, whose enumeration is small enough to check pattern by pattern.
_ORACLE_CASES = [
    (model, horizon, max_faulty)
    for model in (cls(n=n, t=t) for cls in (SendingOmissionModel, ReceiveOmissionModel,
                                            GeneralOmissionModel)
                  for n in (3, 4) for t in (1, 2))
    for horizon in (1, 2, 3)
    for max_faulty in (None, 1)
    if model.count_patterns(horizon, max_faulty=max_faulty) <= 20_000
]


class TestEnumerationOracle:
    """``enumerate`` validates once per faulty set and assembles its patterns
    from shared parts; it must yield exactly what building every pattern of
    the product of masks with full validation yields."""

    @pytest.mark.parametrize("model, horizon, max_faulty", _ORACLE_CASES, ids=[
        f"{model.name}-n{model.n}-h{horizon}-max{max_faulty}"
        for model, horizon, max_faulty in _ORACLE_CASES])
    def test_enumeration_matches_the_validated_product_of_masks(self, model, horizon,
                                                                max_faulty):
        patterns = list(model.enumerate(horizon, max_faulty=max_faulty))
        oracle = list(_oracle_enumerate(model, horizon, max_faulty))
        assert patterns == oracle
        assert list(map(hash, patterns)) == list(map(hash, oracle))
        assert pickle.dumps(patterns) == pickle.dumps(oracle)
        for pattern in patterns:
            assert len(pattern.blocked_by_round) == horizon
            _assert_rounds_group_all_blocked(pattern)

    def test_the_cases_cover_every_model_size_and_horizon(self):
        covered = {(type(model), model.n, model.t, horizon, max_faulty)
                   for model, horizon, max_faulty in _ORACLE_CASES}
        assert len(covered) == len(_ORACLE_CASES) >= 40
        assert {(cls, horizon) for cls, _, _, horizon, _ in covered} == {
            (cls, horizon) for cls in (SendingOmissionModel, ReceiveOmissionModel,
                                       GeneralOmissionModel) for horizon in (1, 2, 3)}

    @pytest.mark.parametrize("pattern", [
        FailurePattern.failure_free(3),
        FailurePattern.silent(4, [1, 3], horizon=3, from_round=1),
        FailurePattern.silent(3, [0], horizon=2, include_self=True),
        FailurePattern.deaf(4, [2], horizon=3),
        FailurePattern.from_receive_blocked(3, [(2, 0, 1), (0, 2, 1)], extra_faulty=[0]),
        FailurePattern(n=3, faulty=frozenset({0, 2}), omissions=frozenset({(1, 2, 0)}),
                       receive_omissions=frozenset({(4, 1, 0)})),
    ], ids=lambda pattern: pattern.describe())
    def test_hand_built_patterns_group_their_blocked_triples_on_first_use(self, pattern):
        assert "blocked_by_round" not in vars(pattern)
        _assert_rounds_group_all_blocked(pattern)
        assert pattern.blocked_by_round is pattern.blocked_by_round
        assert len(pattern.blocked_by_round) == pattern.max_round() + 1
        copy = pickle.loads(pickle.dumps(pattern))
        assert copy == pattern and "blocked_by_round" not in vars(copy)

    @pytest.mark.parametrize("model", [SendingOmissionModel(n=4, t=2),
                                       ReceiveOmissionModel(n=4, t=2),
                                       GeneralOmissionModel(n=4, t=2),
                                       CrashModel(n=4, t=2)], ids=lambda model: model.name)
    def test_sampled_patterns_group_their_blocked_triples(self, model):
        rng = random.Random(5)
        for _ in range(20):
            _assert_rounds_group_all_blocked(model.sample(rng, horizon=3))

    def test_one_faulty_set_shares_its_omission_and_round_sets(self):
        patterns = list(GeneralOmissionModel(n=3, t=1).enumerate(2, max_faulty=1))[1:]
        assert len({id(pattern.faulty) for pattern in patterns[:len(patterns) // 3]}) == 1
        assert len({id(pattern.omissions) for pattern in patterns}) < len(patterns)
        round_sets = {id(edges) for pattern in patterns for edges in pattern.blocked_by_round}
        assert len(round_sets) < len(patterns)


def _opening(bad, receive):
    """``GO(1)`` on 3 agents whose slots, for faulty set {0}, also open ``bad``."""

    class Opening(GeneralOmissionModel):
        def slots(self, faulty, horizon):
            send, receive_slots = super().slots(faulty, horizon)
            if faulty == (0,):
                (receive_slots if receive else send).append(bad)
            return send, receive_slots

    return Opening(n=3, t=1)


class TestEnumerationValidatesEachFaultySet:
    """Validation is hoisted to one pattern per faulty set, not dropped: a bad
    slot raises the error building a pattern with it always raised."""

    @pytest.mark.parametrize("bad, receive", [
        ((0, 1, 2), False),   # charged to the sender, which is not faulty
        ((1, 0, 2), True),    # charged to the receiver, which is not faulty
        ((0, 0, 5), False),   # names an agent outside 0..2
        ((0, 4, 0), True),
        ((-1, 0, 1), False),  # a negative round
    ], ids=["nonfaulty-sender", "nonfaulty-receiver", "receiver-outside", "sender-outside",
            "negative-round"])
    def test_a_bad_slot_raises_the_pattern_error(self, bad, receive):
        with pytest.raises(FailureModelError) as expected:
            FailurePattern(n=3, faulty=frozenset({0}),
                           **{"receive_omissions" if receive else "omissions": {bad}})
        model = _opening(bad, receive)
        with pytest.raises(FailureModelError) as raised:
            list(model.enumerate(1))
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)
        # The faulty sets before {0} still enumerate.
        assert list(model.enumerate(1, max_faulty=0)) == [FailurePattern.failure_free(3)]


class TestExistingModelsRejectReceiveEvents:
    @pytest.mark.parametrize("model", [
        SendingOmissionModel(n=3, t=1),
        CrashModel(n=3, t=1),
        FailureFreeModel(3),
    ])
    def test_receive_omissions_rejected(self, model):
        pattern = FailurePattern.from_receive_blocked(3, [(0, 1, 2)])
        assert not model.admits(pattern)


class TestReceiveSideAdversaries:
    def test_silent_receiver_is_ro_admissible(self):
        pattern = silent_receiver_adversary(4, faulty=[0], horizon=3)
        assert ReceiveOmissionModel(n=4, t=1).admits(pattern)
        assert GeneralOmissionModel(n=4, t=1).admits(pattern)
        assert not SendingOmissionModel(n=4, t=1).admits(pattern)
        for round_index in range(3):
            assert not any(pattern.delivered(round_index, sender, 0) for sender in (1, 2, 3))

    def test_partition_severs_both_directions(self):
        pattern = partition_adversary(5, isolated=[0, 1], horizon=2)
        assert GeneralOmissionModel(n=5, t=2).admits(pattern)
        assert pattern.faulty == frozenset({0, 1})
        assert not pattern.delivered(0, 0, 3)   # isolated -> rest
        assert not pattern.delivered(0, 3, 0)   # rest -> isolated
        assert pattern.delivered(0, 0, 1)       # within the isolated side
        assert pattern.delivered(0, 3, 4)       # within the rest

    def test_empty_partition_is_failure_free(self):
        assert partition_adversary(4, isolated=[], horizon=3) == \
            FailurePattern.failure_free(4)

    def test_mixed_chain_links_survive(self):
        pattern = mixed_omission_chain_adversary(5, chain=(0, 1, 2), horizon=4)
        assert GeneralOmissionModel(n=5, t=3).admits(pattern)
        assert pattern.faulty == frozenset({0, 1, 2})
        # Forward links deliver, everything else around the chain is cut.
        assert pattern.delivered(0, 0, 1)
        assert pattern.delivered(1, 1, 2)
        assert not pattern.delivered(0, 0, 3)   # chain agent talks off-chain
        assert not pattern.delivered(0, 3, 1)   # off-chain agent talks to chain
        assert not pattern.delivered(0, 1, 0)   # backward along the chain

    def test_random_model_adversaries_admissible_per_model(self):
        for key in ("sending-omission", "receive-omission", "general-omission"):
            model = make_model(key, 4, 2)
            scenarios = random_model_scenarios(4, 2, count=5, model=key, seed=9, horizon=3)
            assert len(scenarios) == 5
            assert all(model.admits(pattern) for _preferences, pattern in scenarios)


class TestModelScenarios:
    def test_random_model_scenarios_matches_legacy_for_so(self):
        legacy = random_scenarios(4, 1, count=6, seed=11)
        generic = random_model_scenarios(4, 1, count=6, model="sending-omission",
                                         seed=11, omission_probability=0.5)
        assert legacy == generic

    def test_named_scenarios_are_admissible(self):
        prefs, pattern = silent_receiver_scenario(5, 2)
        assert len(prefs) == 5
        assert ReceiveOmissionModel(n=5, t=2).admits(pattern)
        prefs, pattern = partition_scenario(5, 2)
        assert prefs == (0, 0, 1, 1, 1)
        assert GeneralOmissionModel(n=5, t=2).admits(pattern)
        prefs, pattern = mixed_chain_scenario(5, 2)
        assert prefs == (0, 1, 1, 1, 1)
        assert GeneralOmissionModel(n=5, t=2).admits(pattern)

    def test_contexts_take_models_by_name(self):
        context = gamma_min(3, 1, failure_model="receive-omission")
        assert context.failure_model == ReceiveOmissionModel(n=3, t=1)
        patterns = list(context.patterns())
        assert all(not p.omissions for p in patterns)
