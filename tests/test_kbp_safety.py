"""Tests for the Definition 6.2 safety-condition checker (Proposition 6.4)."""

import pytest

from repro.kbp.reference import scan_per_point
from repro.kbp.safety import check_safety
from repro.protocols import BasicProtocol, MinProtocol
from repro.protocols.baselines import NaiveZeroBiasedProtocol
from repro.systems import gamma_basic, gamma_min


class TestProposition64:
    def test_p0_is_safe_in_gamma_min(self):
        report = check_safety(MinProtocol(1), gamma_min(3, 1))
        assert report.safe
        assert report.points_checked > 0
        assert report.clause1_checks > 0
        assert report.clause2_checks > 0
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
