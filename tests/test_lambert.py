"""Lambert W: oracle comparisons, identity residuals, and domain errors."""

import math
import sys

import pytest
from hypothesis import given, strategies as st

import multisection.lambert as lambert_module
from multisection import ConvergenceError, DomainError, check_w_identity, lambert_w0
from multisection.lambert import _LOG_FORM_FROM


def bisection_w_oracle(x: float, lo: float, hi: float, steps: int = 200) -> float:
    """Independent W oracle: bisect g(w) = w*exp(w) - x.

    Pure textbook bisection — shares no code with the implementation
    under test.
    """
    def g(w):
        return w * math.exp(w) - x

    g_lo = g(lo)
    assert g_lo < 0 < g(hi), "oracle bracket must straddle the root"
    for _ in range(steps):
        mid = lo + (hi - lo) / 2
        if mid == lo or mid == hi:
            break
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo + (hi - lo) / 2


# 1000 log-spaced points across 16 decades, shared by several tests.
GRID = [10.0 ** (-8 + 16 * k / 999) for k in range(1000)]


class TestValues:
    def test_w_of_zero_is_zero(self):
        assert lambert_w0(0.0) == 0.0

    def test_w_of_e_is_one(self):
        assert abs(lambert_w0(math.e) - 1.0) <= 2 * math.ulp(1.0)

    def test_w_of_one_matches_bisection_oracle(self):
        oracle = bisection_w_oracle(1.0, 0.5, 0.6)
        assert abs(lambert_w0(1.0) - oracle) <= 1e-12
        # the omega constant, to the last digit
        assert abs(lambert_w0(1.0) - 0.5671432904097838) <= 1e-12

    def test_against_bisection_oracle_across_decades(self):
        for x in (1e-6, 1e-3, 0.1, 2.0, 50.0, 1e3, 1e6):
            w_true = bisection_w_oracle(x, 0.0, max(1.0, math.log(x + 1.0) + 2.0))
            assert abs(lambert_w0(x) - w_true) <= 1e-12 * (1.0 + abs(w_true))


class TestResiduals:
    def test_defining_residual_at_binary64_floor(self):
        """|W e^W - x| stays within 8 ulp(x) across the grid.

        8 ulp(x) is what a *correctly rounded* W achieves on this exact
        grid — near the bottom of a binade of w*e^w, about 5 rounding
        units relative to x is the attainable floor for any binary64
        implementation, and the ulp-quantized maximum lands on 8.  This
        test pins the implementation to that floor so regressions (a
        genuinely wrong W is off by orders of magnitude) stay visible.
        """
        worst = 0.0
        for x in GRID:
            w = lambert_w0(x)
            residual = abs(w * math.exp(w) - x)
            worst = max(worst, residual / math.ulp(x))
        assert worst <= 8.0, f"defining residual reached {worst} ulp(x)"

    def test_identity_residual_small(self):
        worst = max(check_w_identity(x) for x in GRID)
        assert worst <= 1e-12, f"identity residual reached {worst}"

    def test_identity_examples(self):
        assert check_w_identity(math.e) <= 1e-12
        assert check_w_identity(273.0 / math.e) <= 1e-12
        assert check_w_identity(1e6) <= 1e-12

    def test_roundtrip_through_inverse(self):
        # w -> x = w e^w -> W(x) recovers w
        for k in range(81):
            w = 0.25 * k
            x = w * math.exp(w)
            back = lambert_w0(x)
            assert abs(back - w) <= 1e-12 * (1.0 + w)


class TestShape:
    def test_strictly_increasing_on_grid(self):
        values = [lambert_w0(x) for x in GRID]
        assert all(a < b for a, b in zip(values, values[1:]))

    @given(st.floats(min_value=1e-8, max_value=1e8))
    def test_positive_and_below_log1p(self, x):
        w = lambert_w0(x)
        assert 0.0 < w <= math.log1p(x) * (1.0 + 1e-12)


class TestDomain:
    @pytest.mark.parametrize("x", [-1e-300, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_input(self, x):
        with pytest.raises(DomainError):
            lambert_w0(x)

    @pytest.mark.parametrize("x", [0.0, -1.0, float("inf")])
    def test_identity_rejects_nonpositive(self, x):
        with pytest.raises(DomainError):
            check_w_identity(x)

    def test_convergence_error_when_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(lambert_module, "_MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceError):
            lambert_module.lambert_w0(1e6)


def assert_w_identity(x, w):
    """W(x) * e^W(x) = x read as e^W = x / W, which stays finite up to
    the largest double.  A W within one ulp of the true value meets it to
    about ulp(W) relative, since e^W carries W's absolute error."""
    assert math.isfinite(w) and w > 0.0
    assert abs(math.exp(w) / (x / w) - 1.0) <= 2.0 * math.ulp(w) + 4.0 * sys.float_info.epsilon


class TestLargeArguments:
    """Up to the largest double: Halley's first step overflows from
    ``_LOG_FORM_FROM`` up, so W comes from the log form of the identity."""

    def test_first_argument_that_failed(self):
        # from here up, Halley's method raised ConvergenceError
        x = 2.552723301784522e305
        assert_w_identity(x, lambert_w0(x))

    def test_1e306(self):
        assert_w_identity(1e306, lambert_w0(1e306))

    def test_largest_double(self):
        x = sys.float_info.max
        w = lambert_w0(x)
        assert_w_identity(x, w)
        assert w > lambert_w0(1e306)

    def test_below_the_old_failure_the_seed_is_no_longer_returned(self):
        # from 3.7e302 to 2.55e305 Halley's first step made dw = -0.0, so
        # the log1p seed came back as W, 6.5 too large
        for x in (_LOG_FORM_FROM, 1e303, 1e305, 2.5527233017845217e305):
            w = lambert_w0(x)
            assert_w_identity(x, w)
            assert w < math.log1p(x) - 6.0

    @given(st.floats(min_value=1e300, max_value=sys.float_info.max))
    def test_relative_identity(self, x):
        assert_w_identity(x, lambert_w0(x))

    @given(st.floats(min_value=1e300, max_value=sys.float_info.max),
           st.floats(min_value=1e300, max_value=sys.float_info.max))
    def test_monotone(self, a, b):
        a, b = sorted((a, b))
        assert lambert_w0(a) <= lambert_w0(b)

    def test_monotone_across_the_switch(self):
        xs = [_LOG_FORM_FROM]
        for _ in range(200):
            xs.insert(0, math.nextafter(xs[0], 0.0))
            xs.append(math.nextafter(xs[-1], math.inf))
        ws = [lambert_w0(x) for x in xs]
        assert all(a <= b for a, b in zip(ws, ws[1:]))

    # W below the switch, bit for bit as Halley's method gave it before
    # the log form was added, on a log grid up to the last double below it
    @pytest.mark.parametrize("x,expected", [
        (0.0, "0x0.0p+0"),
        (5e-324, "0x0.0000000000001p-1022"),
        (1e-300, "0x1.56e1fc2f8f359p-997"),
        (1e-100, "0x1.bff2ee48e0530p-333"),
        (1e-08, "0x1.5798ede9635e9p-27"),
        (0.5, "0x1.682ce1cadd300p-2"),
        (1.0, "0x1.22609af8e9657p-1"),
        (10.0, "0x1.bedaec5606043p+0"),
        (1e8, "0x1.f5686bccbfc92p+3"),
        (1e50, "0x1.b9b31debcb0fep+6"),
        (1e100, "0x1.c1afaba5e1a96p+7"),
        (1e200, "0x1.c665e64782231p+8"),
        (1e300, "0x1.561fa4884a0e5p+9"),
        (1e302, "0x1.586c3f44d7373p+9"),
        (3.698426642063639e302, "0x1.59136ab6db522p+9"),
    ])
    def test_halley_results_kept_below_the_switch(self, x, expected):
        assert x < _LOG_FORM_FROM
        assert lambert_w0(x).hex() == expected

    def test_log_form_convergence_error_when_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(lambert_module, "_MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceError):
            lambert_module.lambert_w0(1e306)
