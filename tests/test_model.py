"""Cost model: evaluation counts, wall-time model, and optimal section counts."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from multisection import (
    CostModel,
    DomainError,
    EfficiencyReport,
    ProblemScale,
    RangeError,
    efficiency_report,
    n_min_integer,
    n_min_real,
    rel_eff,
    total_function_evals,
    total_time,
)

MU = 2.0 ** -52


def scan_minimum(cost, scale, n_max=2500):
    """Independent oracle: brute-force argmin of the time model over
    the integers 2..n_max (ties resolved toward the smaller N)."""
    best_n, best_t = 2, total_time(2, cost, scale)
    for n in range(3, n_max + 1):
        t = total_time(n, cost, scale)
        if t < best_t:
            best_n, best_t = n, t
    return best_n


class TestTotalFunctionEvals:
    def test_unit_interval_bisection(self):
        scale = ProblemScale(width=1.0)
        assert abs(total_function_evals(2, scale) - 52.0) <= 1e-9

    def test_four_sections_doubles_count_exactly(self):
        # (4-1)/ln4 = 3/(2 ln2) is exactly 1.5x the N=2 rate
        scale = ProblemScale(width=1.0)
        assert abs(total_function_evals(4, scale)
                   - 1.5 * total_function_evals(2, scale)) <= 1e-9

    def test_strictly_increasing_over_integers(self):
        scale = ProblemScale(width=1.0)
        values = [total_function_evals(n, scale) for n in range(2, 251)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_bisection_minimizes_evaluations(self):
        # (N-1)/ln N increases on N >= 2, so plain bisection is the
        # evaluation-count optimum even though it is rarely the time optimum
        scale = ProblemScale(width=1.0)
        t2 = total_function_evals(2, scale)
        t3 = total_function_evals(3, scale)
        t4 = total_function_evals(4, scale)
        assert t2 < t3 < t4

    def test_validation(self):
        scale = ProblemScale(width=1.0)
        with pytest.raises(DomainError):
            total_function_evals(1, scale)
        with pytest.raises(DomainError):
            ProblemScale(width=0.0)
        with pytest.raises(DomainError):
            ProblemScale(width=1.0, mu=2.0)  # mu must be below width


class TestTotalTime:
    def test_zero_overhead_limit_prefers_three(self):
        # as c -> 0 the model approaches m*N*depth/lnN; at N=3 the
        # per-depth factor is 3/ln3
        cost = CostModel(m=1.0, c=1e-300)
        scale = ProblemScale(width=1.0)
        per_depth = total_time(3, cost, scale) / scale.depth
        assert abs(per_depth - 3.0 / math.log(3.0)) <= 1e-11

    def test_continuity_in_c(self):
        scale = ProblemScale(width=1.0)
        for n in (2, 17, 250):
            t1 = total_time(n, CostModel(m=2e-9, c=5e-7), scale)
            t2 = total_time(n, CostModel(m=2e-9, c=5e-7 * (1 + 1e-12)), scale)
            assert abs(t1 - t2) <= 1e-15 * scale.depth / math.log(n)

    def test_ratio_at_273(self):
        cost = CostModel(m=1.0, c=273.0)
        scale = ProblemScale(width=1.0)
        ratio = total_time(81, cost, scale) / total_time(2, cost, scale)
        assert abs(ratio - 0.203) <= 0.001

    def test_scales_linearly_with_m_at_fixed_ratio(self):
        scale = ProblemScale(width=1.0)
        a = total_time(40, CostModel(m=1e-9, c=273e-9), scale)
        b = total_time(40, CostModel(m=2e-9, c=546e-9), scale)
        assert abs(b - 2.0 * a) <= 1e-12 * abs(b)

    def test_validation(self):
        with pytest.raises(DomainError):
            CostModel(m=0.0, c=1.0)
        with pytest.raises(DomainError):
            CostModel(m=1.0, c=0.0)
        with pytest.raises(DomainError):
            total_time(1, CostModel(m=1.0, c=1.0), ProblemScale(width=1.0))


class TestSectionCountDomain:
    """T_f and T_t take any finite real N >= 2 and refuse the rest
    with DomainError, never a NaN result."""

    @pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, True, False, 1.999,
                                   pytest.param(-10 ** 5000, id="too-long-to-print")])
    def test_refused(self, n):
        scale = ProblemScale(width=1.0)
        with pytest.raises(DomainError, match="N must be a finite number >= 2"):
            total_function_evals(n, scale)
        with pytest.raises(DomainError, match="N must be a finite number >= 2"):
            total_time(n, CostModel(m=1.0, c=1.0), scale)

    @pytest.mark.parametrize("n", [10 ** 400, int(sys.float_info.max) + 1],
                             ids=["10**400", "largest-float-plus-1"])
    def test_integer_beyond_binary64_is_refused(self, n):
        # as check_integer refuses it, not with OverflowError from m * N
        scale = ProblemScale(width=1.0)
        with pytest.raises(DomainError, match="N must be at most .* bits"):
            total_function_evals(n, scale)
        with pytest.raises(DomainError, match="N must be at most .* bits"):
            total_time(n, CostModel(m=1.0, c=1.0), scale)

    def test_largest_binary64_integer_is_accepted(self):
        # the products overflow to inf in binary64; nothing raises
        n = int(sys.float_info.max)
        scale = ProblemScale(width=1.0)
        assert total_function_evals(n, scale) == math.inf
        assert total_time(n, CostModel(m=1.0, c=1.0), scale) == math.inf

    def test_real_n_is_accepted(self):
        scale = ProblemScale(width=1.0)
        assert total_function_evals(2.5, scale) == 1.5 * scale.depth / math.log(2.5)
        assert total_time(2.5, CostModel(m=1.0, c=1.0), scale) == \
            3.5 * scale.depth / math.log(2.5)


class TestNMinReal:
    def test_known_values(self):
        # frozen from a 50-digit solve of N lnN - N = R
        assert abs(n_min_real(273.0) - 80.5558940015) <= 1e-9
        assert abs(n_min_real(500.0) - 129.42871783) <= 1e-7

    def test_limit_small_ratio_is_e(self):
        assert abs(n_min_real(1e-9) - math.e) <= 1e-6

    def test_floor_is_e(self):
        # N* = R / W(R/e) > e for every positive R
        for k in range(1000):
            r = 10.0 ** (-12 + 16 * k / 999)
            assert n_min_real(r) >= math.e - 1e-9

    def test_strictly_increasing(self):
        grid = [1.0 + (10000.0 - 1.0) * k / 999 for k in range(1000)]
        values = [n_min_real(r) for r in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_stationarity_identity(self):
        # the optimum satisfies N ln N - N = R
        for r in (0.5, 10.0, 273.0, 5000.0):
            n = n_min_real(r)
            assert abs((n * math.log(n) - n) - r) <= 1e-10 * max(1.0, r)

    def test_validation(self):
        with pytest.raises(DomainError):
            n_min_real(0.0)
        with pytest.raises(DomainError):
            n_min_real(-5.0)
        with pytest.raises(DomainError):
            n_min_real(math.nan)


class TestNMinInteger:
    def test_known_values(self):
        scale = ProblemScale(width=1.0)
        assert n_min_integer(273.0, CostModel(m=1.0, c=273.0), scale) == 81
        assert n_min_integer(118.0, CostModel(m=1.0, c=118.0), scale) == 43

    def test_small_ratio_gives_three(self):
        scale = ProblemScale(width=1.0)
        assert n_min_integer(1e-9, CostModel(m=1.0, c=1e-9), scale) == 3

    def test_rejects_inconsistent_ratio(self):
        scale = ProblemScale(width=1.0)
        with pytest.raises(DomainError):
            n_min_integer(100.0, CostModel(m=1.0, c=273.0), scale)

    @given(r=st.floats(min_value=1e-3, max_value=1e4))
    def test_matches_exhaustive_scan(self, r):
        cost = CostModel(m=1.0, c=r)
        scale = ProblemScale(width=1.0)
        assert n_min_integer(r, cost, scale) == scan_minimum(cost, scale)

    def test_never_below_three(self):
        # t_t(2)/t_t(3) = (ln3/ln2)*(2+R)/(3+R) > 1 for all R > 0, so the
        # integer optimum can never be 2
        scale = ProblemScale(width=1.0)
        for k in range(200):
            r = 10.0 ** (-9 + 13 * k / 199)
            assert n_min_integer(r, CostModel(m=1.0, c=r), scale) >= 3


class TestRelEff:
    def test_known_values(self):
        # frozen from a 50-digit evaluation of the continuous time ratio
        assert abs(rel_eff(273.0) - 0.203043966562) <= 1e-11
        assert abs(rel_eff(500.0) - 0.178711455871) <= 1e-11

    def test_equals_continuous_time_ratio(self):
        scale = ProblemScale(width=1.0)
        for r in (0.5, 7.0, 118.0, 273.0, 2000.0):
            n_star = n_min_real(r)
            cost = CostModel(m=1.0, c=r)
            # continuous-N time at the real optimum over time at N=2
            t_star = (n_star + r) * scale.depth / math.log(n_star)
            t_two = (2.0 + r) * scale.depth / math.log(2.0)
            assert abs(rel_eff(r) - t_star / t_two) <= 1e-12

    def test_integer_quantization_within_one_percent(self):
        scale = ProblemScale(width=1.0)
        for r in (50.0, 118.0, 273.0, 500.0, 1000.0):
            cost = CostModel(m=1.0, c=r)
            n_int = n_min_integer(r, cost, scale)
            ratio_int = total_time(n_int, cost, scale) / total_time(2, cost, scale)
            assert abs(ratio_int - rel_eff(r)) <= 0.01 * rel_eff(r)

    def test_validation(self):
        with pytest.raises(DomainError):
            rel_eff(0.0)


class TestEfficiencyReport:
    def test_known_row(self):
        cost = CostModel(m=1.0, c=273.0)
        scale = ProblemScale(width=1.0)
        report = efficiency_report(cost, scale)
        assert isinstance(report, EfficiencyReport)
        assert report.R == 273.0
        assert report.n_min_integer == 81
        assert abs(report.rel_eff - 0.203) <= 0.001
        assert abs(report.rel_eff_integer
                   - report.t_t_at_min / report.t_t_at_2) <= 1e-15

    def test_curve_matches_range_and_min(self):
        cost = CostModel(m=2e-9, c=5e-7)
        scale = ProblemScale(width=3.0)
        report = efficiency_report(cost, scale, n_range=range(2, 101))
        assert len(report.curve) == 99
        assert report.curve[0][0] == 2 and report.curve[-1][0] == 100
        for n, t in report.curve:
            assert t == total_time(n, cost, scale)
        assert report.t_t_at_2 == report.curve[0][1]

    def test_minimum_is_global_not_range_clamped(self):
        # a [2,2] range still reports the true integer optimum
        cost = CostModel(m=1.0, c=273.0)
        scale = ProblemScale(width=1.0)
        report = efficiency_report(cost, scale, n_range=[2, 2])
        assert len(report.curve) == 1
        assert report.n_min_integer == 81
        assert report.t_t_at_min == total_time(81, cost, scale)

    def test_requires_two_in_range(self):
        cost = CostModel(m=1.0, c=100.0)
        scale = ProblemScale(width=1.0)
        with pytest.raises(RangeError):
            efficiency_report(cost, scale, n_range=range(3, 11))

    @pytest.mark.parametrize("bad", [3.7, 3.0, True, math.nan])
    def test_rejects_a_non_integer_section_count(self, bad):
        cost = CostModel(m=1.0, c=100.0)
        scale = ProblemScale(width=1.0)
        with pytest.raises(DomainError, match="n_range values must be integers"):
            efficiency_report(cost, scale, n_range=[2, bad])

    def test_accepts_numpy_integers(self):
        cost = CostModel(m=1.0, c=100.0)
        scale = ProblemScale(width=1.0)
        report = efficiency_report(cost, scale, n_range=np.arange(2, 6))
        assert report == efficiency_report(cost, scale, n_range=range(2, 6))

    def test_rejects_sections_below_two(self):
        cost = CostModel(m=1.0, c=100.0)
        scale = ProblemScale(width=1.0)
        with pytest.raises(DomainError):
            efficiency_report(cost, scale, n_range=[1, 2, 3])

    def test_t_t_at_min_is_curve_minimum_when_covered(self):
        cost = CostModel(m=3e-9, c=2e-7)
        scale = ProblemScale(width=7.0)
        report = efficiency_report(cost, scale, n_range=range(2, 251))
        assert report.t_t_at_min == min(t for _, t in report.curve)
