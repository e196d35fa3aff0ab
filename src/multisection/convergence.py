"""Error-bound sequence, its linear convergence, and underflow behavior.

After i N-section iterations the root estimate p_i (midpoint of the
surviving bracket, or the exact-zero node when one was hit) satisfies

    |p_i - p| <= B_i = (b - a) / N**i,

and B_{i+1} <= B_i / 2 for every N >= 2, so the bound converges at least
linearly.  Note the bound is on the *estimate*, not the error ratio
|p_{i+1} - p| / |p_i - p|, which is not monotone for bracketing methods —
nothing here asserts anything about that ratio.

B_i is evaluated by repeated division rather than a power, deliberately:
an iterating solver halves a float over and over, so questions like
"after how many halvings does the width underflow to zero?" are questions
about iterated binary64 division, subnormals included.  Starting from
width 1, exact zero arrives after 1075 halvings (1/2^1074 is the smallest
subnormal; one more halving rounds to 0).  A platform that flushes
subnormals to zero gets there at 1023; ``underflow_exponent`` exposes
both conventions.  Published figures around 1024 for this quantity are
close to the flush-to-zero count and are kept here as a comparison
constant, not an assertion — the exact value is a platform property.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice
from typing import Optional

from .errors import BoundViolation, DomainError
from .solver import Problem, SolveOptions, check_integer, solve, widths

__all__ = [
    "BoundSequence",
    "BoundCheckReport",
    "bound_at",
    "first_index_below",
    "underflow_exponent",
    "verify_error_bounds",
    "NONMONOTONE_RATIO_EXAMPLE_ROOT",
    "REFERENCE_FLUSH_TO_ZERO_Z",
    "QUANTIZATION_ALLOWANCE_ULPS",
]

#: Root of a published example showing the error *ratio* need not shrink
#: monotonically even while the bound does.  Documentation only; the
#: example's function is not public, so nothing computes with this.
NONMONOTONE_RATIO_EXAMPLE_ROOT = 0.564468413605939

#: Halving count to exact zero from width 1 as reported for one reference
#: platform.  Sits between this package's measured values (1075 with
#: subnormals, 1023 under flush-to-zero); kept for comparison output.
REFERENCE_FLUSH_TO_ZERO_Z = 1024

#: Slack granted by verify_error_bounds, in units of ulp at the problem's
#: scale.  The bracket endpoints are quantized to the binary64 grid, so a
#: midpoint can sit a fraction of an ulp outside the exact-arithmetic
#: bound once B_i approaches the grid spacing; 4 ulp covers that while
#: remaining far below any real solver defect.
QUANTIZATION_ALLOWANCE_ULPS = 4.0


@dataclass(frozen=True)
class BoundSequence:
    """The sequence B_i = initial_width / base**i, evaluated iteratively."""

    initial_width: float
    base: int

    def __post_init__(self) -> None:
        if not (self.initial_width > 0.0 and math.isfinite(self.initial_width)):
            raise DomainError(f"initial_width must be > 0, got {self.initial_width}")
        check_integer(self.base, "base")

    def values(self) -> Iterator[float]:
        """Yield B_0, B_1, B_2, ... (infinite; 0.0 forever once underflowed)."""
        return widths(self.initial_width, self.base)


def bound_at(seq: BoundSequence, i: int) -> float:
    """B_i by i successive binary64 divisions (mirrors solver arithmetic)."""
    if i < 0:
        raise DomainError(f"index must be >= 0, got {i}")
    return next(islice(seq.values(), i, None))


def first_index_below(seq: BoundSequence, eps: float) -> int:
    """Smallest i with B_i <= eps.  Requires 0 < eps <= initial_width.

    Uses the same division loop as the solver's tracked width, so with
    eps equal to the solver's width tolerance this equals
    :func:`multisection.solver.predicted_max_iterations`.
    """
    if not (0.0 < eps <= seq.initial_width):
        raise DomainError(
            f"eps must satisfy 0 < eps <= initial_width, got eps={eps}, "
            f"initial_width={seq.initial_width}"
        )
    return next(i for i, b in enumerate(seq.values()) if b <= eps)


def underflow_exponent(width: float, *, flush_subnormals: bool = False) -> int:
    """Number of halvings of ``width`` until the result is exactly 0.0.

    With subnormals (the default, and how binary64 actually behaves
    here), gradual underflow stretches the count: from width 1 the answer
    is 1075.  ``flush_subnormals=True`` simulates abrupt underflow where
    any result below the smallest normal magnitude flushes to zero, which
    from width 1 gives 1023.
    """
    if not (width > 0.0 and math.isfinite(width)):
        raise DomainError(f"width must be > 0 and finite, got {width}")
    # the first halving that lands below the smallest positive value
    # (0.0 itself) or, flushing, below the smallest normal one
    floor = sys.float_info.min if flush_subnormals else math.ulp(0.0)
    halvings = islice(widths(width, 2), 1, None)
    return next(z for z, w in enumerate(halvings, 1) if w < floor)


@dataclass(frozen=True)
class BoundCheckReport:
    """Outcome of verify_error_bounds.

    ``margins[i-1]`` is bound_at(i) minus the observed error after
    iteration i: the strict-bound headroom, which may be a fraction of an
    ulp negative at the very last iterations (see
    QUANTIZATION_ALLOWANCE_ULPS).  ``allowance`` is the absolute slack
    that was granted on top of the strict bound.
    """

    problem_id: str
    sections: int
    iterations: int
    allowance: float
    margins: tuple[float, ...]

    @property
    def min_margin(self) -> float:
        return min(self.margins) if self.margins else math.inf


def verify_error_bounds(
    problem: Problem, sections: int, *, backend: Optional[str] = None
) -> BoundCheckReport:
    """Run a full solve and check |p_i - p| <= B_i at every iteration.

    p_i is the estimate the solver would report after iteration i: the
    chosen subinterval's midpoint, or the exact-zero node when the
    iteration hit one.  Both come from the solve's raw steps (the chosen
    ends and the root of an ExactZero stop), so no trace is built; the
    margins are Python floats on every backend.  Raises
    :class:`BoundViolation` if any iteration exceeds its bound by more
    than the quantization allowance; that signals a solver bug, not
    numerical noise.
    """
    if problem.reference_root is None:
        raise DomainError(f"problem {problem.id!r} has no reference_root")

    result = solve(problem, SolveOptions(sections=sections), backend=backend)
    seq = BoundSequence(problem.bracket.width, sections)
    ref = problem.reference_root
    scale = max(abs(problem.bracket.lo), abs(problem.bracket.hi), abs(ref))
    allowance = QUANTIZATION_ALLOWANCE_ULPS * math.ulp(scale)

    margins = []
    bounds = islice(seq.values(), 1, None)
    for i, ((lo, hi, exact), bound) in enumerate(zip(result._chosen(), bounds), 1):
        # the chosen subinterval's midpoint, as Interval.midpoint computes it
        estimate = lo + (hi - lo) / 2.0 if exact is None else exact
        err = abs(estimate - ref)
        margins.append(bound - err)
        if err > bound + allowance:
            raise BoundViolation(
                f"problem {problem.id!r}, N={sections}: |p_{i} - p| "
                f"= {err} exceeds B_{i} = {bound} "
                f"(+ allowance {allowance})",
                iteration=i,
                observed=err,
                allowed=bound + allowance,
            )
    return BoundCheckReport(
        problem_id=problem.id,
        sections=sections,
        iterations=result.iterations,
        allowance=allowance,
        margins=tuple(margins),
    )
