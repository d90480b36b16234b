"""Tests for the Definition 6.2 safety-condition checker (Proposition 6.4)."""

import copy
import pickle

import numpy as np
import pytest

from repro.analysis import ZeroChain, zero_chains
from repro.core.types import DECIDE_0, NOOP
from repro.exchange.messages import DecideNotification
from repro.failures import FailurePattern
from repro.kbp.reference import chain_receipt_table, scan_per_point
from repro.kbp.safety import _chain_receipt_kernel, check_safety
from repro.protocols import BasicProtocol, MinProtocol, OptimalFipProtocol
from repro.protocols.baselines import (
    DelayedMinProtocol,
    EagerOneProtocol,
    NaiveZeroBiasedProtocol,
)
from repro.simulation.trace import RoundRecord, RunTrace
from repro.systems import InterpretedSystem, gamma_basic, gamma_fip, gamma_min


class TestProposition64:
    def test_p0_is_safe_in_gamma_min(self):
        report = check_safety(MinProtocol(1), gamma_min(3, 1))
        assert report.safe
        assert report.points_checked > 0
        assert report.clause1_checks > 1000
        assert report.clause2_checks > 1000
        assert "safe" in repr(report)

    def test_p0_is_safe_in_gamma_basic(self):
        report = check_safety(BasicProtocol(1), gamma_basic(3, 1))
        assert report.safe

    def test_reuses_a_prebuilt_system(self):
        context = gamma_min(3, 1)
        system = context.build_system(MinProtocol(1))
        report = check_safety(MinProtocol(1), context, system=system)
        assert report.safe

    def test_there_is_no_scan_selector(self):
        with pytest.raises(TypeError):
            check_safety(MinProtocol(1), gamma_min(3, 1), scan="per-point")


class TestSafetyIsNotVacuous:
    def test_gossiping_initial_values_breaks_clause_one(self):
        """A protocol whose exchange leaks ``∃0`` without a chain is not safe.

        Over the full-information exchange an agent can learn about a 0 from a
        faulty agent's graph without any 0-chain reaching it, so clause 1 of
        Definition 6.2 must fail — this is exactly the paper's remark that a
        knowledge-based program is in general *not* safe with respect to an
        FIP.
        """
        context = gamma_min(3, 1, max_faulty_enumerated=1)
        report = check_safety(NaiveZeroBiasedProtocol(1), context)
        assert not report.safe
        assert any(violation.clause == 1 for violation in report.violations)

    def test_violations_are_capped(self):
        context = gamma_min(3, 1, max_faulty_enumerated=1)
        report = check_safety(NaiveZeroBiasedProtocol(1), context, max_violations=3)
        assert len(report.violations) == 3


#: The parity cases: the two safe canonical implementations and an unsafe
#: protocol whose violations exercise the ordering and the cap.
PARITY_CASES = {
    "p_min": (MinProtocol, lambda: gamma_min(3, 1)),
    "p_basic": (BasicProtocol, lambda: gamma_basic(3, 1)),
    "naive_zero_biased": (NaiveZeroBiasedProtocol,
                          lambda: gamma_min(3, 1, max_faulty_enumerated=1)),
}


@pytest.fixture(scope="module", params=sorted(PARITY_CASES))
def parity_case(request):
    protocol_factory, context_factory = PARITY_CASES[request.param]
    protocol, context = protocol_factory(1), context_factory()
    return protocol, context, context.build_system(protocol)


class TestPerPointOracleParity:
    """``check_safety`` and the per-point oracle give identical reports."""

    @pytest.mark.parametrize("max_violations", [3, 10, 10**6])
    def test_reports_are_identical(self, parity_case, max_violations):
        protocol, context, system = parity_case
        fast = check_safety(protocol, context, system=system,
                            max_violations=max_violations)
        oracle = scan_per_point(protocol, context, system,
                                max_violations=max_violations)
        assert fast.points_checked == oracle.points_checked == system.num_points
        assert fast.clause1_checks == oracle.clause1_checks
        assert fast.clause2_checks == oracle.clause2_checks
        assert fast.violations == oracle.violations


def oracle_receipts(system):
    """``chain_receipt_table`` as the kernel's dense ``(runs, n)`` array."""
    rows = np.full((len(system.runs), system.n), -1, dtype=np.int16)
    for (run_index, agent), time in chain_receipt_table(system).items():
        rows[run_index, agent] = time
    return rows


def kernel_receipts(system):
    return _chain_receipt_kernel(system, 0, len(system.runs))


#: n=3 systems for receipt parity: the three paper protocols under SO(1),
#: RO(1) and GO(1), and the baselines.  γ_fip and γ_basic under GO(1) are
#: in the slow tier (~10 s together, mostly the γ_fip build).
RECEIPT_CASES = {
    **{f"{name}-{model}": (protocol, context, model)
       for name, protocol, context in (("min", MinProtocol, gamma_min),
                                       ("basic", BasicProtocol, gamma_basic),
                                       ("opt", OptimalFipProtocol, gamma_fip))
       for model in ("so", "ro")},
    "min-go": (MinProtocol, gamma_min, "go"),
    "naive_zero_biased": (NaiveZeroBiasedProtocol, gamma_min, "so"),
    "delayed_min": (DelayedMinProtocol, gamma_min, "so"),
    "eager_one": (EagerOneProtocol, gamma_basic, "so"),
}


@pytest.mark.parametrize("case", sorted(RECEIPT_CASES))
def test_receipt_kernel_matches_the_oracle(case, n3_system):
    protocol, context, model = RECEIPT_CASES[case]
    system = n3_system(protocol(1), context(3, 1, failure_model=model))
    receipts = kernel_receipts(system)
    assert receipts.dtype == np.int16
    assert np.array_equal(receipts, oracle_receipts(system))


@pytest.fixture(scope="module")
def min_system(n3_system):
    return n3_system(MinProtocol(1), gamma_min(3, 1))


def distinct_records(system):
    return len({id(record) for trace in system.runs for record in trace.rounds})


class TestReceiptKernelInputs:
    """The kernel memoises per shared ``RoundRecord``; sharing must not matter."""

    def test_pickled_system_keeps_sharing_and_receipts(self, min_system):
        clone = pickle.loads(pickle.dumps(min_system))
        assert distinct_records(clone) == distinct_records(min_system)
        assert distinct_records(clone) < len(clone.runs)
        assert np.array_equal(kernel_receipts(clone), oracle_receipts(min_system))

    def test_unshared_records_give_the_same_receipts(self, min_system):
        # Copying trace by trace (a whole-system deepcopy would keep sharing).
        unshared = InterpretedSystem(
            n=min_system.n, horizon=min_system.horizon,
            runs=[copy.deepcopy(trace) for trace in min_system.runs])
        assert distinct_records(unshared) == len(unshared.runs) * unshared.horizon
        assert np.array_equal(kernel_receipts(unshared), oracle_receipts(min_system))

    def test_uneven_run_ranges_concatenate_to_the_whole(self, min_system):
        num_runs = len(min_system.runs)
        whole = kernel_receipts(min_system)
        cuts = [0, 1, 2, 9, 500, 1023, num_runs - 1, num_runs]
        pieces = [_chain_receipt_kernel(min_system, start, stop)
                  for start, stop in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(pieces), whole)
        empty = _chain_receipt_kernel(min_system, 7, 7)
        assert empty.shape == (0, min_system.n) and empty.dtype == np.int16


def hand_trace(preferences, rounds):
    """A trace where round ``k`` is ``rounds[k] = (zero_deciders, seen)``.

    ``seen`` maps a receiver to the senders whose ``DecideNotification(0)``
    it receives that round, which is how a decider in round ``k + 1`` sees
    a round-``k`` decision; every other inbox slot is empty.
    """
    n = len(preferences)
    records = []
    for round_index, (deciders, seen) in enumerate(rounds):
        delivered = tuple(
            tuple(DecideNotification(0) if sender in seen.get(receiver, ()) else None
                  for sender in range(n))
            for receiver in range(n))
        records.append(RoundRecord(
            round_index=round_index,
            actions=tuple(DECIDE_0 if agent in deciders else NOOP for agent in range(n)),
            sent=delivered, delivered=delivered, states_after=(), bits_by_sender=(0,) * n))
    return RunTrace(n=n, protocol_name="hand-built", exchange_name="hand-built",
                    preferences=tuple(preferences), pattern=FailurePattern.failure_free(n),
                    initial_states=(), rounds=records)


#: Branches of ``zero_chains`` that no built system reaches (in every one, a
#: chain's length is its decider's round - 1): ``(preferences, rounds,
#: expected chains, expected receipts)``.
HAND_CASES = {
    # Agent 0 (init 0) first decides 0 in round 2, seeing no one: a singleton
    # chain, which agent 1 then extends to length 1 in round 3.  Agent 2
    # (init 1) decides in round 2 without a chain.
    "late_init_zero_singleton": (
        (0, 1, 1),
        [(set(), {}), ({0, 2}, {1: {0}}), ({1}, {})],
        [ZeroChain((0,)), ZeroChain((0, 1))],
        [0, 1, -1]),
    # In round 3 agent 3 sees two predecessors with chains: 0 (a late
    # singleton) and 2 (on 1 → 2).  The first in ascending order wins, so its
    # chain has length 1, not 2.
    "first_predecessor_wins": (
        (0, 0, 1, 1),
        [({1}, {2: {1}}), ({0, 2}, {3: {0, 2}}), ({3}, {})],
        [ZeroChain((1,)), ZeroChain((0,)), ZeroChain((1, 2)), ZeroChain((0, 3))],
        [0, 0, 1, 1]),
    # Agent 0 decides 0 again in round 3 and sees agent 1, whose chain 0 → 1
    # already holds it: no extension, so it falls back to the singleton, and
    # agent 2 extends that in round 4 (length 1, not 3).
    "already_on_the_chain": (
        (0, 1, 1),
        [({0}, {1: {0}}), ({1}, {0: {1}}), ({0}, {2: {0}}), ({2}, {})],
        [ZeroChain((0,)), ZeroChain((0, 1)), ZeroChain((0,)), ZeroChain((0, 2))],
        [0, 1, 1]),
}


class TestZeroChainEdgeCases:
    @pytest.mark.parametrize("case", sorted(HAND_CASES))
    def test_zero_chains_and_the_kernel_agree(self, case):
        preferences, rounds, chains, receipts = HAND_CASES[case]
        trace = hand_trace(preferences, rounds)
        assert zero_chains(trace) == chains
        system = InterpretedSystem(n=trace.n, horizon=trace.horizon, runs=[trace, trace])
        assert kernel_receipts(system).tolist() == [receipts, receipts]
        assert np.array_equal(kernel_receipts(system), oracle_receipts(system))

    def test_runs_of_different_lengths(self):
        short = hand_trace(*HAND_CASES["late_init_zero_singleton"][:2])
        long = hand_trace(*HAND_CASES["already_on_the_chain"][:2])
        system = InterpretedSystem(n=3, horizon=long.horizon, runs=[short, long, short])
        assert np.array_equal(kernel_receipts(system), oracle_receipts(system))

    def test_runs_of_different_lengths_round_trip(self):
        """Pickled from its run table, each run comes back with its own rounds."""
        short = hand_trace(*HAND_CASES["late_init_zero_singleton"][:2])
        long = hand_trace(*HAND_CASES["already_on_the_chain"][:2])
        system = InterpretedSystem(n=3, horizon=long.horizon, runs=[short, long, short])
        assert system.run_table().lengths.tolist() == [3, 4, 3]
        clone = pickle.loads(pickle.dumps(system))
        assert [len(trace.rounds) for trace in clone.runs] == [3, 4, 3]
        assert [pickle.dumps(trace) for trace in clone.runs] == [
            pickle.dumps(trace) for trace in system.runs]
        assert clone.runs[0].rounds[0] is clone.runs[2].rounds[0]
        assert np.array_equal(kernel_receipts(clone), oracle_receipts(system))


#: Receipt parity at the sizes tier-1 cannot afford: ``(protocol, context,
#: n, failure model)``.
SLOW_RECEIPT_CASES = {
    "basic-go-n3": (BasicProtocol, gamma_basic, 3, "go"),
    "opt-go-n3": (OptimalFipProtocol, gamma_fip, 3, "go"),
    "min-so-n4": (MinProtocol, gamma_min, 4, "so"),
    "basic-so-n4": (BasicProtocol, gamma_basic, 4, "so"),
    "min-so-n5": (MinProtocol, gamma_min, 5, "so"),
}


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(SLOW_RECEIPT_CASES))
def test_receipt_kernel_matches_the_oracle_slow(case):
    protocol, context, n, model = SLOW_RECEIPT_CASES[case]
    system = context(n, 1, failure_model=model).build_system(protocol(1))
    assert np.array_equal(kernel_receipts(system), oracle_receipts(system))
