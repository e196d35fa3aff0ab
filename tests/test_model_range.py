"""The cost model anywhere in binary64: R from the smallest normal double
to the largest, and a refusal below it."""

import math
import sys

import mpmath
import pytest
from hypothesis import given, strategies as st

from multisection import (
    CostModel,
    DomainError,
    ProblemScale,
    efficiency_report,
    n_min_real,
    rel_eff,
)
from multisection.cli import main

TINY, HUGE = sys.float_info.min, sys.float_info.max

#: (k, n_min_real(10**k).hex(), rel_eff(10**k).hex()) before the model
#: took its small-R series and its divided large-R form; neither applies
#: from 1e-8 to 1e305, so every bit there is unchanged.
PINNED = [
    (-8, "0x1.5bf0a8c6bf057p+1", "0x1.e258ecb791df3p-1"),
    (8, "0x1.9e56ad7f422f5p+22", "0x1.81785979489bep-5"),
    (24, "0x1.0d33edcdc780ap+74", "0x1.c32a11b9174c5p-7"),
    (40, "0x1.5b52c46ae758bp+126", "0x1.06263cfb63c96p-7"),
    (56, "0x1.0f5512ec880d1p+179", "0x1.70ec629b4f778p-8"),
    (72, "0x1.d07c12f9522c8p+231", "0x1.1c6c78953dfdfp-8"),
    (88, "0x1.a37701cd45b3dp+284", "0x1.ceb6017a89871p-9"),
    (104, "0x1.886982e91698ap+337", "0x1.85e4d4dec2a7dp-9"),
    (120, "0x1.78644506d6100p+390", "0x1.50d90ae08f629p-9"),
    (136, "0x1.6fcfc58fbc048p+443", "0x1.287d3ea6f1940p-9"),
    (152, "0x1.6ca583b022c97p+496", "0x1.08c17790223e5p-9"),
    (168, "0x1.6dafdb5beda15p+549", "0x1.de4d64ef3445ap-10"),
    (184, "0x1.722f30d6a1ea2p+602", "0x1.b41d6518f8891p-10"),
    (200, "0x1.79ab33864942ap+655", "0x1.90c262fbb1e42p-10"),
    (216, "0x1.83d92d1b6cf2dp+708", "0x1.72b39282ce9aep-10"),
    (232, "0x1.908d21abda6cdp+761", "0x1.58d58a4d00068p-10"),
    (248, "0x1.9fb0d76417688p+814", "0x1.4256ad1d3c515p-10"),
    (264, "0x1.b13e4297748f6p+867", "0x1.2e989e2549b13p-10"),
    (280, "0x1.c53bfb3fe5e2dp+920", "0x1.1d217f02f9b6bp-10"),
    (296, "0x1.dbbaf846a0879p+973", "0x1.0d91ffd95f985p-10"),
    (305, "0x1.addca4acd84c4p+1003", "0x1.058a8810b2812p-10"),
]


def exact(R):
    """N_min and RelEff in 200-bit arithmetic."""
    with mpmath.workprec(200):
        R = mpmath.mpf(R)
        n = R / mpmath.lambertw(R / mpmath.e).real
        return n, (R * mpmath.log(2) / (2 + R)) * ((n + R) / (R * mpmath.log(n)))


def log_uniform(u):
    """The R a fraction u of the way from TINY to HUGE on a log scale."""
    return min(HUGE, max(TINY, math.exp(math.log(TINY) + u * (math.log(HUGE) - math.log(TINY)))))


class TestTinyRatio:
    def test_n_min_real_refuses_a_subnormal_r(self):
        # R/e underflowed to 0 and W(0) = 0: ZeroDivisionError
        with pytest.raises(DomainError, match="R must be"):
            n_min_real(5e-324)

    def test_rel_eff_refuses_r_below_the_smallest_normal(self):
        # returned inf
        with pytest.raises(DomainError, match="R must be"):
            rel_eff(1e-308)

    def test_n_min_real_refuses_r_where_it_fell_below_e(self):
        # returned 2.857, below the limit e
        with pytest.raises(DomainError, match="R must be"):
            n_min_real(1e-322)

    def test_cost_model_refuses_an_infinite_ratio(self):
        # was accepted with ratio = inf
        with pytest.raises(DomainError, match="c/m must be finite"):
            CostModel(m=5e-324, c=1.0)

    def test_predict_exits_3_for_a_subnormal_ratio(self, capsys):
        assert main(["predict", "--ratio", "5e-324"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("multisection: error: R must be finite and "
                                f">= {TINY!r}, got 5e-324\n")

    def test_smallest_normal_r_is_accepted(self):
        assert n_min_real(TINY) == math.e
        assert 0.94 < rel_eff(TINY) < 0.95


class TestHugeRatio:
    def test_rel_eff_where_r_times_ln_n_overflows(self):
        # returned 0.0
        for R in (2.6e305, 3e305, HUGE):
            assert abs(rel_eff(R) - float(exact(R)[1])) <= 1e-15 * rel_eff(R)

    def test_report_for_a_cost_whose_times_overflow(self):
        # rel_eff_integer was NaN: T_t is inf at both N
        report = efficiency_report(CostModel(m=1.0, c=1e308), ProblemScale(width=1.0),
                                   n_range=(2,))
        assert report.t_t_at_2 == math.inf
        assert math.isfinite(report.rel_eff_integer)
        assert abs(report.rel_eff_integer - report.rel_eff) <= 1e-12 * report.rel_eff

    def test_integer_optimum_where_both_neighbours_overflow(self):
        # T_t is inf at both neighbours, N = 3 and 4: they still compare as at R = 1
        huge = efficiency_report(CostModel(m=1e307, c=1e307), ProblemScale(width=1.0))
        unit = efficiency_report(CostModel(m=1.0, c=1.0), ProblemScale(width=1.0))
        assert huge.t_t_at_min == math.inf
        assert huge.n_min_integer == unit.n_min_integer == 4
        assert abs(huge.rel_eff_integer - unit.rel_eff_integer) <= 1e-15

    def test_predict_prints_a_nonzero_rel_eff(self, capsys):
        assert main(["predict", "--ratio", "3e305"]) == 0
        assert f"rel_eff = {rel_eff(3e305)!r}\n" in capsys.readouterr().out
        assert rel_eff(3e305) > 9e-4


class TestAnyBinary64Ratio:
    @pytest.mark.parametrize("k,n_hex,rel_hex", PINNED, ids=[f"1e{k}" for k, *_ in PINNED])
    def test_bits_kept_between_the_two_new_forms(self, k, n_hex, rel_hex):
        R = 10.0 ** k
        assert (n_min_real(R).hex(), rel_eff(R).hex()) == (n_hex, rel_hex)

    @pytest.mark.parametrize("R", [10.0 ** k for k in range(-307, 306, 6)] + [1e308, HUGE])
    def test_agrees_with_mpmath(self, R):
        n, rel = exact(R)
        assert abs(n_min_real(R) - float(n)) <= 1e-15 * float(n)
        assert abs(rel_eff(R) - float(rel)) <= 1e-15 * float(rel)

    def test_series_meets_the_lambert_form(self):
        below = math.nextafter(1e-8, 0.0)
        assert abs(n_min_real(below) - n_min_real(1e-8)) <= 2 * math.ulp(math.e)

    @given(u=st.floats(min_value=0.0, max_value=1.0))
    def test_log_uniform_r(self, u):
        R = log_uniform(u)
        n = n_min_real(R)
        assert n >= math.e
        if R / 2 >= TINY:
            assert n_min_real(R / 2) <= n
        assert 0.0 < rel_eff(R) < 1.0
        report = efficiency_report(CostModel(m=1.0, c=R), ProblemScale(width=1.0),
                                   n_range=(2,))
        assert math.isfinite(report.rel_eff_integer)
