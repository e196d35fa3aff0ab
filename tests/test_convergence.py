"""Error-bound sequences, underflow behaviour, and per-iteration verification."""

import itertools
import math
import sys
from dataclasses import replace

import pytest

from multisection import (
    BoundSequence,
    BoundViolation,
    DomainError,
    Interval,
    Problem,
    SolveOptions,
    bound_at,
    corpus,
    first_index_below,
    predicted_max_iterations,
    solve,
    underflow_exponent,
    verify_error_bounds,
)
from multisection import solver
from multisection.convergence import (
    NONMONOTONE_RATIO_EXAMPLE_ROOT,
    QUANTIZATION_ALLOWANCE_ULPS,
    REFERENCE_FLUSH_TO_ZERO_Z,
)
from test_contract import ScalarOnly

MU = 2.0 ** -52


class TestBoundSequence:
    def test_initial_value(self):
        assert bound_at(BoundSequence(1.0, 2), 0) == 1.0

    def test_ten_halvings(self):
        assert bound_at(BoundSequence(1.0, 2), 10) == 0.0009765625

    def test_unit_width_reaches_epsilon_at_52(self):
        assert bound_at(BoundSequence(1.0, 2), 52) == MU

    def test_pi_half_width_is_below_epsilon_at_53(self):
        assert bound_at(BoundSequence(math.pi / 2, 2), 53) <= MU

    def test_values_is_lazy_and_consistent(self):
        seq = BoundSequence(3.0, 6)
        head = list(itertools.islice(seq.values(), 20))
        assert head == [bound_at(seq, i) for i in range(20)]

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            bound_at(BoundSequence(1.0, 2), -1)

    def test_validation(self):
        with pytest.raises(DomainError):
            BoundSequence(0.0, 2)
        with pytest.raises(DomainError):
            BoundSequence(1.0, 1)

    @pytest.mark.parametrize("base", [2.5, True])
    def test_rejects_non_integer_base(self, base):
        with pytest.raises(DomainError, match=">= 2"):
            BoundSequence(1.0, base)

    def test_halving_never_overshoots(self):
        # each term is the previous divided once in binary64, so the
        # drop factor is exact-to-rounding all the way into subnormals
        seq = BoundSequence(1.0, 2)
        prev = None
        for i, value in enumerate(seq.values()):
            if prev is not None:
                assert value <= prev / 2 + math.ulp(prev)
            if value == 0.0:
                break
            prev = value
            assert i < 1100


class TestBoundAtIndex:
    """bound_at takes any integer index >= 0 through check_integer, and a
    huge one costs no more than reaching 0.0."""

    @pytest.mark.parametrize("i", [2.5, True, -1])
    def test_non_integer_or_negative_index_refused(self, i):
        with pytest.raises(DomainError, match="index must be an integer >= 0"):
            bound_at(BoundSequence(1.0, 2), i)

    @pytest.mark.parametrize("i", [10 ** 7, 2 ** 63, int(sys.float_info.max)],
                             ids=["10**7", "2**63", "largest-float"])
    def test_huge_index_is_zero(self, i):
        assert bound_at(BoundSequence(1.0, 2), i) == 0.0

    def test_index_beyond_binary64_refused(self):
        with pytest.raises(DomainError, match="index must be at most"):
            bound_at(BoundSequence(1.0, 2), 10 ** 400)

    @pytest.mark.parametrize("width,base", [(1.0, 2), (math.pi, 3), (1e300, 7),
                                            (5e-324, 2), (1.5, 4096)])
    def test_every_index_matches_the_division_sequence(self, width, base):
        seq = BoundSequence(width, base)
        head = list(itertools.islice(seq.values(), 1200))
        assert head[-1] == 0.0
        assert [bound_at(seq, i) for i in range(1200)] == head


class TestFirstIndexBelow:
    def test_threshold_equal_to_width(self):
        assert first_index_below(BoundSequence(1.0, 2), 1.0) == 0

    def test_unit_width_epsilon(self):
        assert first_index_below(BoundSequence(1.0, 2), MU) == 52

    def test_six_sections(self):
        assert first_index_below(BoundSequence(3.0, 6), 1e-10) == 14

    def test_invalid_thresholds(self):
        seq = BoundSequence(1.0, 2)
        with pytest.raises(DomainError):
            first_index_below(seq, 2.0)  # above the initial width
        with pytest.raises(DomainError):
            first_index_below(seq, 0.0)

    @pytest.mark.parametrize("sections", [2, 3, 10, 81])
    def test_agrees_with_solver_prediction(self, sections):
        for problem in corpus():
            width = problem.bracket.width
            seq = BoundSequence(width, sections)
            assert first_index_below(seq, MU) == predicted_max_iterations(
                problem.bracket, MU, sections
            )


class TestUnderflowExponent:
    def test_unit_width_full_depth(self):
        assert underflow_exponent(1.0) == 1075

    def test_flush_to_zero_stops_at_smallest_normal(self):
        assert underflow_exponent(1.0, flush_subnormals=True) == 1023

    def test_tiny_width(self):
        assert underflow_exponent(2.0 ** -1074) == 1

    def test_shift_invariance(self):
        base = underflow_exponent(1.0)
        for k in (1, 10, 52):
            assert underflow_exponent(2.0 ** k) == base + k

    def test_flush_mode_consistent_with_smallest_normal(self):
        z = underflow_exponent(1.0, flush_subnormals=True)
        assert 1.0 / 2.0 ** (z - 1) >= sys.float_info.min
        assert 1.0 / 2.0 ** z < sys.float_info.min

    def test_validation(self):
        with pytest.raises(DomainError):
            underflow_exponent(0.0)
        with pytest.raises(DomainError):
            underflow_exponent(math.inf)


class TestConstants:
    def test_nonmonotone_example_root(self):
        # the classic demonstration that the error RATIO e_{i+1}/e_i of
        # bisection is not monotone even though the bound B_i is
        assert NONMONOTONE_RATIO_EXAMPLE_ROOT == 0.564468413605939

    def test_reference_flush_constant(self):
        assert REFERENCE_FLUSH_TO_ZERO_Z == 1024

    def test_allowance_is_four_ulps(self):
        assert QUANTIZATION_ALLOWANCE_ULPS == 4.0


class TestVerifyErrorBounds:
    @pytest.mark.parametrize("sections", [2, 81])
    def test_corpus_all_within_bounds(self, sections):
        for problem in corpus():
            report = verify_error_bounds(problem, sections)
            assert report.problem_id == problem.id
            assert report.sections == sections
            assert len(report.margins) == report.iterations
            # strict margins may dip a few ulps negative; the allowance
            # absorbs that
            allowance = report.allowance
            assert all(m + allowance >= 0.0 for m in report.margins)
            assert report.min_margin == min(report.margins)

    def test_exact_root_gives_margin_equal_to_bound(self):
        # f(x) = x on [-1, 1]: the first midpoint is the exact root, so
        # the recorded error is 0 and the margin equals the bound itself
        p = Problem(id="identity", f=lambda x: x,
                    bracket=Interval(-1.0, 1.0), reference_root=0.0)
        report = verify_error_bounds(p, 2)
        assert report.iterations == 1
        assert report.margins[0] == bound_at(BoundSequence(2.0, 2), 1)

    def test_wrong_reference_raises_bound_violation(self):
        problems = corpus()
        wrong = Problem(id="square-8-wrong-ref", f=problems[2].f,
                        bracket=problems[2].bracket, reference_root=-2.82)
        with pytest.raises(BoundViolation) as excinfo:
            verify_error_bounds(wrong, 2)
        err = excinfo.value
        assert err.iteration >= 1
        assert err.observed > err.allowed

    def test_requires_reference_root(self):
        p = Problem(id="no-ref", f=lambda x: x - 0.5,
                    bracket=Interval(0.0, 1.0))
        with pytest.raises(DomainError):
            verify_error_bounds(p, 2)

    def test_allowance_scales_with_magnitude(self):
        problems = corpus()
        report_small = verify_error_bounds(problems[0], 2)   # bracket in [0, pi/2]
        report_large = verify_error_bounds(problems[5], 2)   # bracket up to 40
        assert report_large.allowance > report_small.allowance
        scale = max(abs(problems[5].bracket.lo), abs(problems[5].bracket.hi),
                    abs(problems[5].reference_root))
        assert report_large.allowance == 4.0 * math.ulp(scale)

    def test_margins_track_solver_trace(self):
        # recompute the strict margins directly from the solver trace
        problem = corpus()[2]
        sections = 3
        report = verify_error_bounds(problem, sections)
        result = solve(problem, SolveOptions(sections=sections))
        seq = BoundSequence(problem.bracket.width, sections)
        for record, margin in zip(result.trace, report.margins):
            if record.exact_root is not None:
                estimate = record.exact_root
            else:
                estimate = record.chosen_subinterval.midpoint()
            err = abs(estimate - problem.reference_root)
            assert margin == bound_at(seq, record.index) - err


def expected_from_trace(problem, sections):
    """Margins recomputed from the solver's trace, and the
    (message, iteration, observed, allowed) of the first violation or None."""
    trace = solve(problem, SolveOptions(sections=sections)).trace
    seq = BoundSequence(problem.bracket.width, sections)
    ref = problem.reference_root
    scale = max(abs(problem.bracket.lo), abs(problem.bracket.hi), abs(ref))
    allowance = QUANTIZATION_ALLOWANCE_ULPS * math.ulp(scale)
    margins = []
    for record in trace:
        if record.exact_root is not None:
            estimate = record.exact_root
        else:
            estimate = record.chosen_subinterval.midpoint()
        err = abs(estimate - ref)
        bound = bound_at(seq, record.index)
        if err > bound + allowance:
            return margins, (
                f"problem {problem.id!r}, N={sections}: |p_{record.index} - p| "
                f"= {err} exceeds B_{record.index} = {bound} "
                f"(+ allowance {allowance})",
                record.index, err, bound + allowance)
        margins.append(bound - err)
    return margins, None


def forbid_trace_records(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a trace record was built")
    monkeypatch.setattr(solver, "_record", refuse)


class TestVerifyFromSteps:
    """verify_error_bounds reads the solve's steps and never builds a trace."""

    @pytest.mark.parametrize("scalar", [False, True], ids=["array", "scalar-only"])
    @pytest.mark.parametrize("sections", [2, 10, 50])
    def test_margins_equal_the_trace_recomputation(self, monkeypatch, sections, scalar):
        problems = [replace(p, f=ScalarOnly(p.f)) if scalar else p for p in corpus()]
        expected = [expected_from_trace(p, sections)[0] for p in problems]
        forbid_trace_records(monkeypatch)
        with pytest.raises(AssertionError, match="trace record"):
            solve(problems[0], SolveOptions(sections=sections)).trace
        for problem, margins in zip(problems, expected):
            report = verify_error_bounds(problem, sections)
            assert list(report.margins) == margins
            assert [type(m) for m in report.margins] == [type(m) for m in margins]

    @pytest.mark.parametrize("scalar", [False, True], ids=["array", "scalar-only"])
    @pytest.mark.parametrize("sections", [2, 10, 50])
    def test_violation_fields_equal_the_trace_recomputation(self, monkeypatch, sections, scalar):
        problems = []
        for p in corpus():
            wrong = p.bracket.lo + (p.bracket.hi - p.bracket.lo) * 0.37
            problems.append(replace(p, f=ScalarOnly(p.f) if scalar else p.f,
                                    reference_root=wrong))
        expected = [expected_from_trace(p, sections)[1] for p in problems]
        forbid_trace_records(monkeypatch)
        for problem, fields in zip(problems, expected):
            assert fields is not None
            with pytest.raises(BoundViolation) as excinfo:
                verify_error_bounds(problem, sections)
            err = excinfo.value
            assert (str(err), err.iteration, err.observed, err.allowed) == fields
