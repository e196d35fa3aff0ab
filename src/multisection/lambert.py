"""Principal-branch Lambert W on [0, inf).

W(x) is the inverse of w * e^w; it appears here because the stationarity
condition of the section-count cost model, N ln N - N = R, is solved
exactly by N = R / W(R/e).  Only the principal branch over nonnegative
arguments is needed for that, which keeps the implementation small.

The iteration is Halley's method seeded with log1p(x), which is accurate
for small x and within one Newton step of the asymptotic log x - log log x
for large x; five or six iterations reach double precision over the whole
tested range [1e-8, 1e8].  From :data:`_LOG_FORM_FROM` (about 3.7e302) up
to the largest double, Halley's first step overflows binary64, so W comes
from Newton's method on the logarithm of the identity, w + ln w = ln x,
seeded with ln x - ln ln x; its terms stay near ln x.

Accuracy note: the defining residual |W e^W - x| of the returned value
sits at the level binary64 permits — a handful of rounding units relative
to x.  Near the bottom of a binade of w * e^w the conditioning of the
product makes ~5 units the attainable floor even for a correctly rounded
W, so callers should treat the *relative identity* check (division by x)
as the meaningful one; it holds to ~1e-15 here.  For large x, e^W
carries W's absolute error, so the identity holds only to about ulp(W):
up to ~1e-13 near the largest double, where W is about 703.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError

__all__ = ["lambert_w0", "check_w_identity"]

#: Halley iteration cap; hitting it raises ConvergenceError.
_MAX_ITERATIONS = 50

#: Step-size stopping tolerance, relative to 1 + |w|.
_STOP_TOLERANCE = 1e-15

#: The least x at which Halley's first step from the log1p seed
#: overflows: (w + 2) * (w * e^w - x) exceeds the largest double.  Below
#: it every step stays finite; from it up the log form runs instead.
_LOG_FORM_FROM = float.fromhex("0x1.1420e978261bcp+1005")


def lambert_w0(x: float) -> float:
    """Principal branch W(x) for x >= 0, so W(x) * exp(W(x)) = x.

    Raises :class:`DomainError` for negative, NaN, or infinite input and
    :class:`ConvergenceError` if the iteration fails to settle within
    its iteration cap (not observed for any valid input).
    """
    x = float(x)
    if math.isnan(x) or math.isinf(x) or x < 0.0:
        raise DomainError(f"lambert_w0 requires finite x >= 0, got {x}")
    if x >= _LOG_FORM_FROM:
        return _lambert_w0_log_form(x)

    w = math.log1p(x)
    for _ in range(_MAX_ITERATIONS):
        c1 = math.exp(w)
        c2 = w * c1 - x
        w1 = w + 1.0
        dw = c2 / (c1 * w1 - ((w + 2.0) * c2 / (2.0 * w1)))
        w -= dw
        if abs(dw) <= _STOP_TOLERANCE * (1.0 + abs(w)):
            return w
    raise ConvergenceError(
        f"Halley iteration for W({x}) did not converge in {_MAX_ITERATIONS} steps"
    )


def _lambert_w0_log_form(x: float) -> float:
    """W(x) for x at or above :data:`_LOG_FORM_FROM`: Newton's method on
    g(w) = w + ln w - ln x, whose derivative is 1 + 1/w."""
    target = math.log(x)
    w = target - math.log(target)
    for _ in range(_MAX_ITERATIONS):
        dw = (w + math.log(w) - target) / (1.0 + 1.0 / w)
        w -= dw
        if abs(dw) <= _STOP_TOLERANCE * (1.0 + abs(w)):
            return w
    raise ConvergenceError(
        f"Newton iteration for W({x}) did not converge in {_MAX_ITERATIONS} steps"
    )


def check_w_identity(x: float) -> float:
    """Relative defining-identity residual |W(x) exp(W(x)) - x| / x.

    Requires x > 0.  Values are ~1e-16..1e-15; anything much larger
    indicates a broken W implementation.
    """
    x = float(x)
    if not (x > 0.0) or math.isinf(x):
        raise DomainError(f"check_w_identity requires finite x > 0, got {x}")
    w = lambert_w0(x)
    return abs(w * math.exp(w) - x) / x
