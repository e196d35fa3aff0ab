"""Cost model for choosing the section count N.

An N-section solve needs ln(width/mu)/ln N iterations to shrink a bracket
of the given width to the tolerance mu, and each iteration costs a loop
time that is affine in N:  t_loop = m*N + c.  Combining the two,

    T_f(N) = (N - 1) * ln(width/mu) / ln N      (function evaluations)
    T_t(N) = (m*N + c) * ln(width/mu) / ln N    (wall time)

T_f is minimized at N = 2 — more sections always cost more evaluations —
but T_t is not: when the per-loop overhead c dominates the per-section
cost m, fewer, fatter iterations win.  Setting dT_t/dN = 0 gives
N ln N - N = R with R = c/m, whose exact solution is

    N_min = R / W(R/e)

with W the Lambert function (:mod:`multisection.lambert`).  The relative
efficiency

    RelEff = T_t(N_min) / T_t(2) = (R ln2 / (2 + R)) * ((N_min + R) / (R ln N_min))

is dimensionless and depends on R alone; everything else cancels.

All formulas here keep iteration counts continuous (no rounding), which
is what makes N_min and RelEff closed-form; the solver module owns the
integer-iteration reality.  ``n_min_integer`` bridges the two by an
argmin over the two integer neighbors of N_min, never naive rounding:
T_t is asymmetric around its minimum, and the two rules disagree for some
R (the neighbor comparison is razor-thin — differences in the sixth
significant digit are common).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, RangeError, describe
from .lambert import lambert_w0

__all__ = [
    "CostModel",
    "ProblemScale",
    "EfficiencyReport",
    "total_function_evals",
    "total_time",
    "n_min_real",
    "n_min_integer",
    "rel_eff",
    "efficiency_report",
]

#: The section counts a sweep measures and a report's curve spans unless
#: told otherwise.
DEFAULT_N_VALUES = tuple(range(2, 251))

#: Below this R, N_min is taken as e + R.  The series' next term,
#: -R²/(2e), is then under a tenth of an ulp of e, while R / W(R/e)
#: rounds to within a few ulp of e either side, which would put N_min
#: below its limit e and let it fall as R grows.
_SERIES_BELOW = 1e-8

#: From this R up, RelEff is computed with R divided out of its terms:
#: R * ln(N_min) overflows from about 2.58e305, and ln N_min < 710 for
#: every double, so below this bound the direct form stays finite.
_DIVIDED_FROM = sys.float_info.max / 1024


@dataclass(frozen=True)
class CostModel:
    """Per-loop cost t = m*N + c, in seconds.

    m is the marginal cost of one extra section per loop; c is the
    N-independent overhead.  Both must be positive — the N_min derivation
    divides by m and takes W of c/(m*e).
    """

    m: float
    c: float

    def __post_init__(self) -> None:
        if not (self.m > 0.0 and math.isfinite(self.m)):
            raise DomainError(f"m must be > 0, got {self.m}")
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise DomainError(f"c must be > 0, got {self.c}")
        if math.isinf(self.ratio):
            raise DomainError(f"c/m must be finite, got c={self.c}, m={self.m}")

    @property
    def ratio(self) -> float:
        """R = c/m, the dimensionless overhead-to-marginal-cost ratio."""
        return self.c / self.m


@dataclass(frozen=True)
class ProblemScale:
    """Bracket width and target precision defining the work ln(width/mu)."""

    width: float
    mu: float = 2.0 ** -52

    def __post_init__(self) -> None:
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise DomainError(f"mu must be > 0, got {self.mu}")
        if not (self.width > self.mu and math.isfinite(self.width)):
            raise DomainError(
                f"width must exceed mu, got width={self.width}, mu={self.mu}"
            )

    @property
    def depth(self) -> float:
        """ln(width/mu): iterations required per unit of ln N."""
        return math.log(self.width / self.mu)


@dataclass(frozen=True)
class EfficiencyReport:
    """N_min and the T_t landscape for one cost model.

    ``rel_eff`` is the closed form evaluated at the real-valued N_min;
    ``rel_eff_integer`` is the directly computed T_t(n_min_integer)/T_t(2)
    for comparison against measurements, which only ever see integer N.
    """

    R: float
    n_min_real: float
    n_min_integer: int
    rel_eff: float
    rel_eff_integer: float
    t_t_at_2: float
    t_t_at_min: float
    curve: tuple[tuple[int, float], ...]


def _check_n(N) -> None:
    """Raise :class:`DomainError` unless N is a finite real >= 2 and at
    most the largest binary64 value, since the model's arithmetic is
    binary64.  N stays real (the model is continuous in N), so 2.5
    passes; NaN, an infinity, a bool (which compares as 0 or 1) and an
    integer too large for a float do not."""
    if not 2 <= N < math.inf:
        raise DomainError(f"N must be a finite number >= 2, got {describe(N)}")
    if N > sys.float_info.max:
        raise DomainError(f"N must be at most {sys.float_info.max!r}, "
                          f"got an integer of {int(N).bit_length()} bits")


def _check_ratio(R) -> None:
    """Raise :class:`DomainError` unless R is a finite double at least the
    smallest normal one: below it R/e loses bits to underflow, and
    c/m that small is no measurement."""
    if not sys.float_info.min <= R < math.inf:
        raise DomainError(f"R must be finite and >= {sys.float_info.min!r}, "
                          f"got {R}")


def _time_ratio(N: float, R: float) -> float:
    """T_t(N) / T_t(2) for R = c/m, with R divided out of both loop costs
    so that no term overflows for any finite R."""
    return (math.log(2.0) / (2.0 / R + 1.0)) * ((N / R + 1.0) / math.log(N))


def total_function_evals(N: int, scale: ProblemScale) -> float:
    """T_f(N) = (N-1) * ln(width/mu) / ln N, the evaluation count."""
    _check_n(N)
    return (N - 1) * scale.depth / math.log(N)


def total_time(N: int, cost: CostModel, scale: ProblemScale) -> float:
    """T_t(N) = (m*N + c) * ln(width/mu) / ln N, in seconds."""
    _check_n(N)
    return (cost.m * N + cost.c) * scale.depth / math.log(N)


def n_min_real(R: float) -> float:
    """The real minimizer of T_t:  N_min = R / W(R/e).

    Tends to e as R -> 0+ and grows monotonically with R.  R must be a
    finite double at least ``sys.float_info.min`` (:class:`DomainError`).
    """
    _check_ratio(R)
    if R < _SERIES_BELOW:
        return math.e + R
    return R / lambert_w0(R / math.e)


def n_min_integer(R: float, cost: CostModel, scale: ProblemScale) -> int:
    """Integer section count: argmin of T_t over the two neighbors of N_min.

    Both candidates are clamped to >= 2; ties break toward the smaller N.
    Where T_t overflows at either, they compare by T_t(N)/T_t(2).
    ``R`` must equal ``cost.ratio`` — it is passed separately only so the
    dimensionless and dimensional views stay visibly consistent.
    """
    if not math.isclose(R, cost.ratio, rel_tol=1e-9):
        raise DomainError(
            f"R={R} is inconsistent with cost.ratio={cost.ratio}"
        )
    real = n_min_real(R)
    lo = max(2, math.floor(real))
    hi = max(2, math.ceil(real))
    if hi == lo:
        return lo
    t_lo, t_hi = total_time(lo, cost, scale), total_time(hi, cost, scale)
    if math.isinf(t_lo) or math.isinf(t_hi):  # compare with R divided out
        t_lo, t_hi = _time_ratio(lo, R), _time_ratio(hi, R)
    return lo if t_lo <= t_hi else hi  # on a tie the smaller N wins


def rel_eff(R: float) -> float:
    """RelEff = (R ln2/(2+R)) * ((N_min + R)/(R ln N_min)), N_min real.

    Depends on R only; c, m, width, and mu all cancel.  R is checked as
    in :func:`n_min_real`.
    """
    n = n_min_real(R)
    if R >= _DIVIDED_FROM:
        return _time_ratio(n, R)
    return (R * math.log(2.0) / (2.0 + R)) * ((n + R) / (R * math.log(n)))


def efficiency_report(
    cost: CostModel,
    scale: ProblemScale,
    n_range: Iterable[int] = DEFAULT_N_VALUES,
) -> EfficiencyReport:
    """Assemble N_min, RelEff, and the T_t curve over ``n_range``.

    ``n_range`` holds integers (DomainError otherwise: 3.7 is not read as
    3) and must contain 2 (RangeError otherwise) since every ratio in
    the report is anchored at T_t(2).  ``n_min_integer`` is the global
    minimizer whether or not the range covers it; the curve is purely for
    presentation/plotting.
    """
    ns = list(n_range)
    for n in ns:
        if not isinstance(n, numbers.Integral) or isinstance(n, bool):
            raise DomainError(f"n_range values must be integers, got {describe(n)}")
    ns = sorted(set(int(n) for n in ns))
    if 2 not in ns:
        raise RangeError("n_range must contain N=2, the efficiency anchor")
    if ns[0] < 2:
        raise DomainError(f"n_range values must be >= 2, found {ns[0]}")

    R = cost.ratio
    real = n_min_real(R)
    integer = n_min_integer(R, cost, scale)
    t2 = total_time(2, cost, scale)
    tmin = total_time(integer, cost, scale)
    curve = tuple((n, total_time(n, cost, scale)) for n in ns)
    return EfficiencyReport(
        R=R,
        n_min_real=real,
        n_min_integer=integer,
        rel_eff=rel_eff(R),
        # T_t(2) overflows when m*2 + c, or its product with the depth, does
        rel_eff_integer=tmin / t2 if t2 < math.inf else _time_ratio(integer, R),
        t_t_at_2=t2,
        t_t_at_min=tmin,
        curve=curve,
    )
