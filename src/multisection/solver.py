"""N-section bracketing root finder.

Bisection generalized to N >= 2 subdivisions per iteration: each pass
evaluates the N - 1 interior nodes

    x_j = lo + (j * (hi - lo)) / N,        j = 1 .. N-1

left to right, keeps the leftmost subinterval whose endpoint signs differ,
and repeats.  One iteration shrinks the bracket by a factor of N at the
cost of N - 1 evaluations, so the iteration count falls like 1/log(N)
while per-iteration cost grows linearly — the trade-off quantified in
:mod:`multisection.model`.

A solve's pass budget is fixed before its first pass: the count of
binary64 divisions ``w /= N`` that take the bracket's width ``hi - lo``
to ``width_tolerance`` or below (:func:`predicted_max_iterations`), cut
to ``max_iterations`` when that is smaller, with the stop it ends in
(``WidthReached``, or ``MaxIterations`` when the cap cut it).  No solve
loop tracks a width or measures its bracket: the count keeps falling by
N even after the bracket's ends collide to adjacent doubles, which makes
iteration counts reproducible.  Every backend runs its passes under that
one budget, and only an exact zero or the residual stop ends a solve
early.  The count is memoised per (width, tolerance, N), so back-to-back
solves of one bracket count it once.

One driver, :func:`_solve`, does for every backend what surrounds the
passes: the endpoint checks, the pass budget, the probe of f at the root
and the :class:`SolveResult`.  A backend supplies only its passes, with
:func:`_multisect`'s signature and return.

A node value that is exactly zero terminates immediately.  The zero node
is reported as the root and recorded as the right endpoint of the chosen
subinterval (sign 0 differs from the nonzero sign to its left), so every
iteration record — including the last one of an exact-zero run — carries a
genuine subinterval of 1/N the parent width.

One loop per solve, :func:`_multisect`, runs all of a solve's passes in
one call, with what stays fixed within a solve (numpy's functions, the
result shape, the pass, the departure test, ``float(N)`` and the node
index) bound once as its locals.  The node index is the float array
``1.0 .. N - 1``, taken as a list of Python floats by the list and
per-node passes: each index is exact, so every node has the bits of the
int-index formula, and ``i * span`` is a float product, which the
interpreter multiplies faster than an int by a float.  Each pass calls
f once, on an array of its nodes.  Up to :data:`LIST_PASS_MAX_SECTIONS`
sections the pass builds the nodes and scans their values as Python
floats around that call (numpy's per-call overhead dominates on a
handful of nodes); above it, numpy builds the nodes and does the NaN
check and the sign scan.
Once f rejects an array, every later pass runs over Python floats with
one call per node and no numpy in the loop.  All passes share the rule
that picks the chosen subinterval, so they give bit-identical results
whenever f returns the same bits for a float as for an array.  A bracket
whose ``(N - 1) * width`` overflows is refused with :class:`DomainError`,
so no node ever falls outside its bracket.

A solve keeps each iteration's node values and the chosen endpoints as
they are (arrays from the array pass, lists from the list pass), and no
nodes: a pass's nodes are a function of its bracket and N by the pinned
arithmetic, so :attr:`Steps.nodes_x` derives them on read.  The
:class:`IterationRecord` trace is built from the steps on the first read
of :attr:`SolveResult.trace`, so a caller that never reads it never pays
for it.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from operator import ge, le, ne
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    BracketError,
    DomainError,
    EvaluationError,
    NoSignChangeError,
    describe,
)

#: Default width tolerance: one binary64 spacing unit at scale 1.
MACHINE_WIDTH = 2.0 ** -52


def sign(value: float) -> int:
    """Return -1, 0, or +1.  NaN raises :class:`EvaluationError`."""
    if math.isnan(value):
        raise EvaluationError("function value is NaN")
    if value > 0.0:
        return 1
    if value < 0.0:
        return -1
    return 0


@dataclass(frozen=True)
class Interval:
    """A nonempty closed interval [lo, hi] with finite endpoints and a
    finite width."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise DomainError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")
        if not math.isfinite(self.hi - self.lo):
            raise DomainError(f"interval width must be finite, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def midpoint(self) -> float:
        return self.lo + (self.hi - self.lo) / 2.0


@dataclass(frozen=True)
class Problem:
    """A root-finding problem: a callable and a bracket that traps a root."""

    id: str
    f: Callable[[float], float]
    bracket: Interval
    reference_root: Optional[float] = None

    def __post_init__(self) -> None:
        if self.reference_root is not None:
            if not (self.bracket.lo <= self.reference_root <= self.bracket.hi):
                raise DomainError(
                    f"reference root {self.reference_root} lies outside "
                    f"[{self.bracket.lo}, {self.bracket.hi}]"
                )


def check_integer(value, name: str, least: int = 2) -> None:
    """Raise :class:`DomainError` unless ``value`` is an integer >= ``least``
    (``bool`` is not an integer here) and at most the largest binary64
    value, since every count here meets binary64 arithmetic (a solve
    divides by ``float(N)``).  The default is the least section count."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least):
        raise DomainError(f"{name} must be an integer >= {least}, got {describe(value)}")
    if value > sys.float_info.max:
        raise DomainError(f"{name} must be at most {sys.float_info.max!r}, "
                          f"got an integer of {int(value).bit_length()} bits")


@dataclass(frozen=True)
class SolveOptions:
    """Solver knobs.

    A solve runs at most :func:`predicted_max_iterations` passes, the
    divisions by N that take the bracket's width to ``width_tolerance``;
    ``max_iterations``, when not None, caps that budget.
    """

    sections: int = 2
    width_tolerance: float = MACHINE_WIDTH
    residual_tolerance: float = 0.0
    max_iterations: Optional[int] = None

    def __post_init__(self) -> None:
        check_integer(self.sections, "sections")
        if not (self.width_tolerance > 0.0 and math.isfinite(self.width_tolerance)):
            raise DomainError(f"width_tolerance must be positive, got {self.width_tolerance}")
        if not (self.residual_tolerance >= 0.0 and math.isfinite(self.residual_tolerance)):
            raise DomainError(
                f"residual_tolerance must be finite and >= 0, got {self.residual_tolerance}"
            )
        if self.max_iterations is not None:
            check_integer(self.max_iterations, "max_iterations", 0)


class Termination(Enum):
    """Why a solve stopped."""

    EXACT_ZERO = "ExactZero"
    WIDTH_REACHED = "WidthReached"
    RESIDUAL_REACHED = "ResidualReached"
    MAX_ITERATIONS = "MaxIterations"


@dataclass(frozen=True)
class IterationRecord:
    """Everything one iteration did.

    ``evaluated_nodes`` holds exactly ``sections - 1`` pairs ``(x, f(x))``
    in ascending x.  ``exact_root`` is the zero node when this iteration
    hit one, else None; in that case it equals ``chosen_subinterval.hi``.
    """

    index: int
    interval_before: Interval
    evaluated_nodes: tuple[tuple[float, float], ...]
    chosen_subinterval: Interval
    exact_root: Optional[float] = None


def _pass_nodes(lo, hi, values):
    """The nodes of the pass over [lo, hi] that gave ``values``, by the
    pinned arithmetic ``lo + (j * (hi - lo)) / N`` with the float index
    ``j = 1.0 .. N - 1``: an array where the pass kept an array of
    values, else a list of Python floats.  Every pass builds its nodes by
    these operations in this order, so these are the bits f was called
    with."""
    sections = len(values) + 1
    n = float(sections)
    if isinstance(values, np.ndarray):
        return lo + (np.arange(1.0, n) * (hi - lo)) / n
    span = hi - lo
    return [lo + (i * span) / n for i in map(float, range(1, sections))]


class _Nodes(Sequence):
    """Each pass's nodes, derived on read by :func:`_pass_nodes` from its
    bracket (the solve's, then the pair the pass before it chose) and
    its values; a slice reads as a list of the passes it selects."""

    __slots__ = ("_bracket", "_values", "_chosen_lo", "_chosen_hi")

    def __init__(self, bracket: Interval, values, chosen_lo, chosen_hi):
        self._bracket = bracket
        self._values = values
        self._chosen_lo = chosen_lo
        self._chosen_hi = chosen_hi

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index):
        i = range(len(self))[index]  # negative indices, slices, and IndexError
        if isinstance(i, range):
            return [self[j] for j in i]
        if i == 0:
            lo, hi = self._bracket.lo, self._bracket.hi
        else:
            lo, hi = self._chosen_lo[i - 1], self._chosen_hi[i - 1]
        return _pass_nodes(lo, hi, self._values[i])


class Steps(NamedTuple):
    """What every backend's solve keeps to build its trace from: the
    bracket and, per iteration, the f values at the nodes and the chosen
    subinterval's ends.  ``nodes_x`` keeps no nodes: it derives each
    pass's nodes on read from the pass's bracket and N (see
    :func:`_pass_nodes`), as an array where the pass kept an array of
    values and as a list of floats where it kept a list.

    The numpy path keeps one sequence of values per iteration: a list of
    floats for N at or below :data:`LIST_PASS_MAX_SECTIONS`, or once f
    rejects an array, and an array otherwise.  The numba backend keeps
    the rows of a 2-D array.  Every path keeps its ends as Python floats.
    """

    bracket: Interval
    nodes_x: Sequence[Sequence[float]]
    nodes_f: Sequence[Sequence[float]]
    chosen_lo: Sequence[float]
    chosen_hi: Sequence[float]


def _floats(values) -> list:
    return values.tolist() if isinstance(values, np.ndarray) else values


def _record(index: int, before: Interval, xs, fs, lo: float, hi: float,
            exact_root: Optional[float]) -> IterationRecord:
    return IterationRecord(
        index=index,
        interval_before=before,
        evaluated_nodes=tuple(zip(_floats(xs), _floats(fs))),
        chosen_subinterval=Interval(float(lo), float(hi)),
        exact_root=exact_root,
    )


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of a solve.

    ``function_evaluations`` counts the two bracket-endpoint evaluations
    plus ``sections - 1`` per iteration.  The diagnostic residual probe at
    the returned root (for width/iteration-capped stops) is not counted:
    it is reporting, not search work.

    ``trace`` holds one :class:`IterationRecord` per iteration.  It is
    built from ``steps`` on its first read and cached.  Results compare
    by their fields and by the values in their steps, which is equal
    traces without building them; they hash by their fields alone.
    """

    root: float
    residual: float
    iterations: int
    function_evaluations: int
    termination: Termination
    steps: Optional[Steps] = field(default=None, repr=False)

    def __init__(self, root: float, residual: float, iterations: int,
                 function_evaluations: int, termination: Termination,
                 steps: Optional[Steps] = None):
        # one dict update instead of the frozen dataclass's generated
        # __init__, which makes one object.__setattr__ call per field
        self.__dict__.update(root=root, residual=residual, iterations=iterations,
                             function_evaluations=function_evaluations,
                             termination=termination, steps=steps)

    def _chosen(self) -> list[tuple[float, float, Optional[float]]]:
        """Per iteration, the chosen subinterval's ends and the exact zero
        the iteration hit, else None.  Only the last iteration of an
        ExactZero stop hits one, and that zero is :attr:`root`."""
        if self.steps is None:
            return []
        chosen = [(float(lo), float(hi), None)
                  for lo, hi in zip(self.steps.chosen_lo, self.steps.chosen_hi)]
        if chosen and self.termination is Termination.EXACT_ZERO:
            lo, hi, _ = chosen[-1]
            chosen[-1] = (lo, hi, self.root)
        return chosen

    @cached_property
    def trace(self) -> tuple[IterationRecord, ...]:
        if self.steps is None:
            return ()
        records = []
        before = self.steps.bracket
        passes = zip(self.steps.nodes_x, self.steps.nodes_f, self._chosen())
        for i, (xs, fs, (lo, hi, exact)) in enumerate(passes, 1):
            record = _record(i, before, xs, fs, lo, hi, exact)
            records.append(record)
            before = record.chosen_subinterval
        return tuple(records)

    def _fields(self) -> tuple:
        return (self.root, self.residual, self.iterations,
                self.function_evaluations, self.termination)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._fields() == other._fields()
                and _same_steps(self.steps, other.steps))

    def __hash__(self):
        return hash(self._fields())


def _same_values(a, b) -> bool:
    """Whether two sequences of floats hold equal values, lists or arrays
    alike; -0.0 equals 0.0, as in a trace."""
    if type(a) is list and type(b) is list:
        return a == b
    return np.array_equal(a, b)


def _same_steps(a: Optional[Steps], b: Optional[Steps]) -> bool:
    """Whether two solves' steps make equal traces, without building them:
    the same chosen ends and the same values, and the same bracket unless
    no iteration ran.  The nodes follow from the bracket, the chosen ends
    and N, and the exact root of the last record is the result's root,
    which the fields already compare."""
    iterations = 0 if a is None else len(a.chosen_lo)
    if iterations != (0 if b is None else len(b.chosen_lo)):
        return False
    return iterations == 0 or (
        a.bracket == b.bracket
        and _same_values(a.chosen_lo, b.chosen_lo)
        and _same_values(a.chosen_hi, b.chosen_hi)
        and all(map(_same_values, a.nodes_f, b.nodes_f))
    )


def _validate_endpoints(f: Callable[[float], float], bracket: Interval) -> tuple[float, float]:
    """Evaluate f at the bracket endpoints once, validating as we go, and
    return both values."""
    lo, hi = bracket.lo, bracket.hi
    f_lo = float(f(lo))
    f_hi = float(f(hi))
    if math.isnan(f_lo) or math.isnan(f_hi):
        bad = lo if math.isnan(f_lo) else hi
        raise EvaluationError(f"f({bad}) is NaN")
    if sign(f_lo) == sign(f_hi):
        raise BracketError(
            f"f does not change sign over [{lo}, {hi}]: "
            f"f(lo)={f_lo}, f(hi)={f_hi}"
        )
    return f_lo, f_hi


def validate_bracket(problem: Problem) -> tuple[int, int]:
    """Check that the bracket traps a sign change; return the endpoint signs.

    Raises :class:`BracketError` when the signs match (including the
    degenerate case of both endpoints being exact zeros) and
    :class:`EvaluationError` on NaN.  A single exact-zero endpoint is a
    valid bracket: sign 0 differs from the other side.
    """
    f_lo, f_hi = _validate_endpoints(problem.f, problem.bracket)
    return sign(f_lo), sign(f_hi)


#: Section counts at or below this take the list pass: the nodes are
#: built and scanned as Python floats around one array call of f, which
#: beats numpy's per-call overhead on a handful of nodes.  Above it the
#: array pass's per-node cost is lower.
LIST_PASS_MAX_SECTIONS = 12


def _departure(f_lo: float):
    """The departure test of a bracket whose left end has f value
    ``f_lo``: ``le``, ``ge`` or ``ne`` against 0.0, on one float or
    elementwise on an array.  Every chosen subinterval's left end keeps
    the sign of ``f_lo`` and its right end departs from it (a zero there
    ends the solve), so the first node whose value departs closes the
    leftmost sign change."""
    return le if f_lo > 0.0 else ge if f_lo < 0.0 else ne


def _check_nodes_finite(interval: Interval, sections: int) -> None:
    """Raise :class:`DomainError` unless ``(N - 1) * width`` is finite,
    which keeps every pinned ``j * span`` finite and each node in [lo, hi]."""
    if not math.isfinite((sections - 1) * interval.width):
        raise DomainError(
            f"the nodes of [{interval.lo}, {interval.hi}] at {sections} sections "
            f"overflow: (sections - 1) * width must be finite"
        )


def _multisect(f: Callable[[float], float], sections: int, f_lo: float,
               lo: float, hi: float, limit: int, rtol: float = 0.0):
    """Run up to ``limit`` N-section passes in one frame, the first over
    [lo, hi] and each later one over the pair the one before it chose.

    Each pass keeps the leftmost pair of adjacent points (endpoints
    included) whose signs differ: f at ``lo`` has the sign of ``f_lo``, so
    the pair ends at the first node that departs from it, or at ``hi``.
    A NaN node raises :class:`EvaluationError` that names the first NaN
    node, before the departure scan; the array pass finds it with one
    ``argmax`` over the values, which returns the first NaN's index when
    there is one, and builds no boolean array.  Returns the stop, the
    root, its residual and the three step lists (the values, the chosen
    lo and hi; the nodes are not kept): ``ExactZero`` at a zero
    node, ``ResidualReached`` at the first node of least ``|f|`` when
    that is at most ``rtol`` > 0, else None with the last pair's midpoint
    and no residual.  What is fixed within a solve is bound once, after
    the zero-pass return, the node index among it: ``1.0 .. N - 1`` as
    floats, an array for the array pass and a list of Python floats for
    the others.  The first time f rejects the node array (any exception
    but :class:`EvaluationError`, or a result of the wrong shape), that
    pass and every later one call f once per node, over the index as a
    list.
    """
    steps = nodes_f, chosen_lo, chosen_hi = [], [], []
    if not limit:
        return None, lo + (hi - lo) / 2.0, None, steps
    asarray, array_of, float64, isnan = np.asarray, np.array, np.float64, math.isnan
    shape = (sections - 1,)
    departs = _departure(f_lo)
    # dividing by the float gives the bits of dividing by the int
    n = float(sections)
    array_pass = sections > LIST_PASS_MAX_SECTIONS
    vectorized = True
    # the node index as floats: each is exact, so i * span has the bits
    # of the int product, and a float pair takes the interpreter's fast
    # float multiply
    j = np.arange(1, sections, dtype=float64)
    if not array_pass:
        j = j.tolist()
    for _ in range(limit):
        # node arithmetic is pinned so every pass and backend sees
        # bit-identical abscissas: the same three operations in order
        if array_pass:
            xs = lo + (j * (hi - lo)) / n
        else:
            span = hi - lo
            xs = [lo + (i * span) / n for i in j]
        if vectorized:
            array = xs if array_pass else array_of(xs)
            try:
                fs = asarray(f(array), dtype=float64)
            except EvaluationError:
                raise
            except Exception:
                fs = None
            if fs is None or fs.shape != shape:
                if array_pass:
                    j = j.tolist()
                vectorized = array_pass = False
                xs = array.tolist()
        if array_pass:
            # argmax returns the index of the first NaN when there is one
            k = fs.argmax()
            if isnan(fs[k]):
                raise EvaluationError(f"f({xs[k]}) is NaN")
            hits = departs(fs, 0.0)
            k = int(hits.argmax())
            if not hits[k]:
                k = None
        else:
            fs = fs.tolist() if vectorized else [float(f(x)) for x in xs]
            if any(map(isnan, fs)):
                first_nan = next(x for x, fx in zip(xs, fs) if isnan(fx))
                raise EvaluationError(f"f({first_nan}) is NaN")
            for k, fx in enumerate(fs):
                if departs(fx, 0.0):
                    break
            else:
                k = None
        # every point before the leftmost change has the sign of f(lo), so
        # that change ends at the first point that departs from it
        if k is None:
            lo = xs[-1]
        else:
            if k > 0:
                lo = xs[k - 1]
            hi = xs[k]
        if array_pass:  # the list passes' nodes are Python floats already
            lo, hi = float(lo), float(hi)
        nodes_f.append(fs)
        chosen_lo.append(lo)
        chosen_hi.append(hi)
        if k is not None and fs[k] == 0.0:
            return Termination.EXACT_ZERO, hi, 0.0, steps
        if rtol > 0.0:
            best = _first_smallest(fs)
            if abs(fs[best]) <= rtol:
                return Termination.RESIDUAL_REACHED, float(xs[best]), float(fs[best]), steps
    return None, lo + (hi - lo) / 2.0, None, steps


def multisect_step(
    interval: Interval,
    f: Callable[[float], float],
    sections: int,
    *,
    index: int = 1,
    f_lo: Optional[float] = None,
    f_hi: Optional[float] = None,
) -> IterationRecord:
    """Perform a single N-section pass over ``interval``.

    Preconditions: ``sections >= 2`` and f changes sign (or vanishes)
    across the interval.  Endpoint values can be passed in to avoid
    re-evaluation; otherwise they are computed here.  A zero ``f_lo``
    makes the chosen lo the exact root, as does a zero ``f_hi`` the
    chosen hi when no node departs.  Raises :class:`DomainError` when a
    node would overflow, and :class:`NoSignChangeError` when the endpoint
    values and every node share one sign.
    """
    check_integer(sections, "sections")
    _check_nodes_finite(interval, sections)
    if f_lo is None:
        f_lo = float(f(interval.lo))
    if f_hi is None:
        f_hi = float(f(interval.hi))
    if math.isnan(f_lo) or math.isnan(f_hi):
        raise EvaluationError("endpoint function value is NaN")
    departs = _departure(f_lo)
    stop, root, _, ((fs,), (lo,), (hi,)) = _multisect(f, sections, f_lo, interval.lo,
                                                     interval.hi, 1)
    exact = None if stop is None else root
    if not any(departs(fx, 0.0) for fx in fs):
        # the chosen pair is the last node and interval.hi
        if not departs(f_hi, 0.0):
            raise NoSignChangeError(f"f_lo={f_lo}, f_hi={f_hi} and every node "
                                    f"of [{interval.lo}, {interval.hi}] share one sign")
        if f_hi == 0.0:
            exact = hi
    if f_lo == 0.0:
        exact = lo
    return _record(index, interval, _pass_nodes(interval.lo, interval.hi, fs), fs,
                   lo, hi, exact)


def widths(width: float, sections: int) -> Iterator[float]:
    """Yield width, width/N, width/N/N, ... by repeated binary64 division
    (0.0 forever once it underflows): the one width-division loop, behind
    every solve's pass budget and every bound-sequence value.  Dividing
    by ``float(N)`` gives the bits of dividing by the int."""
    n = float(sections)
    while True:
        yield width
        width /= n


@lru_cache
def _division_count(width: float, tolerance: float, sections: int) -> int:
    """How many divisions :func:`widths` takes from ``width`` to
    ``tolerance`` or below: the index of its first term not above the
    tolerance.  Memoised: keys that compare equal (3 and 3.0) divide to
    the same bits, so they share a count."""
    for count, w in enumerate(widths(width, sections)):
        if not w > tolerance:
            return count


def predicted_max_iterations(
    interval: Interval, width_tolerance: float, sections: int
) -> int:
    """Number of iterations a solve runs before it stops at
    ``width_tolerance``: the count of binary64 divisions ``w /= N`` that
    take the interval's width to the tolerance or below.

    It is ``solve``'s pass budget without a cap (:func:`_budget`), so a
    solve with the same arguments and no cap performs exactly this many
    iterations unless it lands on an exact zero or the residual stop
    first.  Equivalently it is the smallest M with width / N**M <= tol,
    up to the rounding of repeated division.
    """
    return _budget(interval, SolveOptions(sections, width_tolerance))[0]


def _budget(bracket: Interval, options: SolveOptions) -> tuple[int, Termination]:
    """A solve's pass budget, fixed before its first pass: how many passes
    it may run, and how it stops when it runs them all.  That is
    ``WidthReached`` after :func:`_division_count` divisions by N, unless
    ``max_iterations`` is smaller: then ``MaxIterations`` after that many."""
    count = _division_count(bracket.width, options.width_tolerance, options.sections)
    cap = options.max_iterations
    if cap is None or count <= cap:
        return count, Termination.WIDTH_REACHED
    return cap, Termination.MAX_ITERATIONS


def solve(
    problem: Problem,
    options: Optional[SolveOptions] = None,
    *,
    backend: Optional[str] = None,
) -> SolveResult:
    """Run N-section passes to convergence.

    ``backend`` selects the engine that runs the passes under
    :func:`_solve`: "numpy" (:func:`_multisect`), "numba" (a compiled
    kernel producing the same records), or None to defer to the
    MULTISECTION_BACKEND environment variable, read on every call, and
    then to auto-detection.  See :mod:`multisection.kernels`.  A bracket
    whose nodes at ``options.sections`` would overflow raises
    :class:`DomainError` before any backend runs.
    """
    if options is None:
        options = SolveOptions()
    _check_nodes_finite(problem.bracket, options.sections)
    if kernels.resolve_backend(backend) == "numba":
        result = kernels.solve_numba(problem, options)
        if result is not None:
            return result
    return _solve(problem.f, _multisect, problem.bracket, options)


def _first_smallest(fs) -> int:
    """The index of the first of the values of least magnitude: numpy's
    ``argmin`` on an array, plain Python on a list."""
    if isinstance(fs, np.ndarray):
        return int(np.abs(fs).argmin())
    magnitudes = list(map(abs, fs))
    return magnitudes.index(min(magnitudes))


def _solve(f: Callable[[float], float], passes, bracket: Interval,
           options: SolveOptions) -> SolveResult:
    """The one solve driver, for every backend: check the endpoints (a
    zero there is a zero-iteration ``ExactZero`` result), fix the pass
    budget, run ``passes(f, sections, f_lo, lo, hi, limit, rtol)``, probe
    f at the root when that returns no stop, and build the result.
    ``passes`` returns what :func:`_multisect` returns: the stop or None,
    the root, its residual, and three sequences with one entry per pass
    run (the values at the nodes, the chosen lo and hi), from which
    :class:`Steps` derives the nodes."""
    f_lo, f_hi = _validate_endpoints(f, bracket)
    if f_lo == 0.0 or f_hi == 0.0:
        return SolveResult(root=bracket.lo if f_lo == 0.0 else bracket.hi, residual=0.0,
                           iterations=0, function_evaluations=2,
                           termination=Termination.EXACT_ZERO)

    sections = options.sections
    limit, termination = _budget(bracket, options)
    stop, root, residual, steps = passes(f, sections, f_lo, bracket.lo, bracket.hi,
                                         limit, options.residual_tolerance)
    if stop is None:  # every pass ran
        residual = float(f(root))  # diagnostic probe, not counted
    else:
        termination = stop
    iterations = len(steps[0])
    return SolveResult(root=root, residual=residual, iterations=iterations,
                       function_evaluations=2 + (sections - 1) * iterations,
                       termination=termination,
                       steps=Steps(bracket, _Nodes(bracket, *steps), *steps))


# last: kernels imports this module's types
from . import kernels  # noqa: E402
