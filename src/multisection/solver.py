"""N-section bracketing root finder.

Bisection generalized to N >= 2 subdivisions per iteration: each pass
evaluates the N - 1 interior nodes

    x_j = lo + (j * (hi - lo)) / N,        j = 1 .. N-1

left to right, keeps the leftmost subinterval whose endpoint signs differ,
and repeats.  One iteration shrinks the bracket by a factor of N at the
cost of N - 1 evaluations, so the iteration count falls like 1/log(N)
while per-iteration cost grows linearly — the trade-off quantified in
:mod:`multisection.model`.

Termination compares a *tracked* width ``w`` (initialized to ``hi - lo``
and updated ``w /= N`` each iteration) against ``width_tolerance`` rather
than recomputing ``hi - lo`` of the current bracket.  The two agree to a
rounding unit per step, but the tracked width keeps shrinking even after
the bracket endpoints collide to adjacent doubles, which makes iteration
counts reproducible and equal to :func:`predicted_max_iterations`.

A node value that is exactly zero terminates immediately.  The zero node
is reported as the root and recorded as the right endpoint of the chosen
subinterval (sign 0 differs from the nonzero sign to its left), so every
iteration record — including the last one of an exact-zero run — carries a
genuine subinterval of 1/N the parent width.

Each pass calls f once, on an array of its nodes.  Up to
:data:`LIST_PASS_MAX_SECTIONS` sections the pass builds the nodes and
scans their values as Python floats around that one call (numpy's
per-call overhead dominates on a handful of nodes); above it, numpy
builds the nodes and does the NaN check and the sign scan.  Once f
rejects an array, every later pass runs over Python floats with one call
per node and no numpy in the loop.  All passes share the rules that pick
the chosen subinterval, so they give bit-identical results whenever f
returns the same bits for a float as for an array.

A solve keeps each iteration's nodes, their values and the chosen
endpoints as they are (arrays from the array pass, lists from the list
pass); the :class:`IterationRecord` trace is built from them on the
first read of :attr:`SolveResult.trace`, so a caller that never reads it
never pays for it.
"""

from __future__ import annotations

import logging
import math
import numbers
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import ge, le, ne
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    BracketError,
    DomainError,
    EvaluationError,
    NoSignChangeError,
)

logger = logging.getLogger(__name__)

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
    (``bool`` is not an integer here).  The default is the least section
    count."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least):
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


def widths(width: float, sections: int) -> Iterator[float]:
    """Yield width, width/N, width/N/N, ... by repeated binary64 division:
    the tracked width of a solve after 0, 1, 2, ... iterations (0.0
    forever once it underflows)."""
    w = width
    while True:
        yield w
        w /= sections


@dataclass(frozen=True)
class SolveOptions:
    """Solver knobs.

    ``max_iterations`` of None means no cap: the tracked width reaches
    ``width_tolerance`` after :func:`predicted_max_iterations` iterations.
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


class Steps(NamedTuple):
    """What every backend's solve keeps to build its trace from: the
    bracket and, per iteration, the nodes, their f values and the chosen
    subinterval's ends.

    The numpy path keeps one sequence of nodes and one of values per
    iteration: lists of floats for N at or below
    :data:`LIST_PASS_MAX_SECTIONS`, or once f rejects an array, and
    arrays otherwise.  The numba backend keeps rows of 2-D arrays and
    arrays of ends.
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
        for i, (lo, hi, exact) in enumerate(self._chosen()):
            record = _record(i + 1, before, self.steps.nodes_x[i],
                             self.steps.nodes_f[i], lo, hi, exact)
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
    the same chosen ends and the same nodes and values, and the same
    bracket unless no iteration ran.  (The exact root of the last record
    is the result's root, which the fields already compare.)"""
    iterations = 0 if a is None else len(a.chosen_lo)
    if iterations != (0 if b is None else len(b.chosen_lo)):
        return False
    return iterations == 0 or (
        a.bracket == b.bracket
        and _same_values(a.chosen_lo, b.chosen_lo)
        and _same_values(a.chosen_hi, b.chosen_hi)
        and all(map(_same_values, a.nodes_x, b.nodes_x))
        and all(map(_same_values, a.nodes_f, b.nodes_f))
    )


def _validate_endpoints(
    f: Callable[[float], float], bracket: Interval
) -> tuple[float, float, Optional[SolveResult]]:
    """Evaluate f at the bracket endpoints once, validating as we go.

    Returns f at both ends, and the finished zero-iteration result when
    one end is an exact zero (else None).
    """
    lo, hi = bracket.lo, bracket.hi
    f_lo = float(f(lo))
    f_hi = float(f(hi))
    if math.isnan(f_lo) or math.isnan(f_hi):
        bad = lo if math.isnan(f_lo) else hi
        raise EvaluationError(f"f({bad}) is NaN")
    s_lo, s_hi = sign(f_lo), sign(f_hi)
    if s_lo == s_hi:
        raise BracketError(
            f"f does not change sign over [{lo}, {hi}]: "
            f"f(lo)={f_lo}, f(hi)={f_hi}"
        )
    if s_lo != 0 and s_hi != 0:
        return f_lo, f_hi, None
    return f_lo, f_hi, SolveResult(
        root=lo if s_lo == 0 else hi,
        residual=0.0,
        iterations=0,
        function_evaluations=2,
        termination=Termination.EXACT_ZERO,
    )


def validate_bracket(problem: Problem) -> tuple[int, int]:
    """Check that the bracket traps a sign change; return the endpoint signs.

    Raises :class:`BracketError` when the signs match (including the
    degenerate case of both endpoints being exact zeros) and
    :class:`EvaluationError` on NaN.  A single exact-zero endpoint is a
    valid bracket: sign 0 differs from the other side.
    """
    f_lo, f_hi, _ = _validate_endpoints(problem.f, problem.bracket)
    return sign(f_lo), sign(f_hi)


#: Section counts at or below this take the list pass: the nodes are
#: built and scanned as Python floats around one array call of f, which
#: beats numpy's per-call overhead on a handful of nodes.  Above it the
#: array pass's per-node cost is lower.
LIST_PASS_MAX_SECTIONS = 12


class _Stepper:
    """One N-section pass at a time for one solve.

    Everything that stays fixed within a solve is decided once, here:

    * the pass, from ``sections``: the array pass above
      :data:`LIST_PASS_MAX_SECTIONS` (the nodes are one array and numpy
      finds the first NaN and the first departing node), the list pass at
      or below it (the same node arithmetic over Python floats, a
      plain-Python NaN check and scan, and the nodes and their values
      kept as lists).  Both call f once per pass on an array of the
      nodes.  The first time f rejects an array (see :meth:`_f_on_array`),
      that pass and every later one run the list pass with one f call per
      node;
    * the departure test, from the sign of f at the bracket's left end.
      Every chosen subinterval's left end keeps that sign and its right
      end departs from it (a zero there ends the solve), so the first
      node whose value *departs* (``le``, ``ge`` or ``ne`` against 0.0,
      on one float or elementwise on an array) closes the leftmost sign
      change.

    Only the evaluation and the search for the first departing node
    differ between the passes; :meth:`step` holds the rules they share.
    """

    def __init__(self, f: Callable[[float], float], sections: int, f_lo: float):
        self.f = f
        self.sections = sections
        # dividing by the float gives the bits of dividing by the int
        self.n = float(sections)
        self.departs = le if f_lo > 0.0 else ge if f_lo < 0.0 else ne
        self.vectorized = True
        self.array_pass = sections > LIST_PASS_MAX_SECTIONS
        if self.array_pass:
            self.j = np.arange(1, sections, dtype=np.float64)

    def _f_on_array(self, xs: np.ndarray) -> Optional[np.ndarray]:
        """f's values on the node array, or None once f rejects it: any
        exception but :class:`EvaluationError`, or a result of the wrong
        shape.  A rejection turns the solve to per-node calls for good."""
        try:
            fs = np.asarray(self.f(xs), dtype=np.float64)
        except EvaluationError:
            raise
        except Exception:
            fs = None
        if fs is None or fs.shape != xs.shape:
            self.vectorized = self.array_pass = False
            return None
        return fs

    def _vector_pass(self, lo: float, hi: float):
        """The nodes, their f values, and the index of the first node that
        departs, or None; the list pass's result once f rejects the
        array."""
        # node arithmetic is pinned so every backend and the list pass
        # see bit-identical abscissas
        xs = lo + (self.j * (hi - lo)) / self.n
        fs = self._f_on_array(xs)
        if fs is None:
            return self._list_pass(lo, hi)
        nan = np.isnan(fs)
        first_nan = nan.argmax()
        if nan[first_nan]:
            raise EvaluationError(f"f({xs[first_nan]}) is NaN")
        hits = self.departs(fs, 0.0)
        k = int(hits.argmax())
        return xs, fs, k if hits[k] else None

    def _list_pass(self, lo: float, hi: float):
        """:meth:`_vector_pass` over Python floats, with lists for arrays."""
        span, n, f = hi - lo, self.n, self.f
        # the array pass's three node operations, in the same order
        xs = [lo + (j * span) / n for j in range(1, self.sections)]
        fs = self._f_on_array(np.array(xs)) if self.vectorized else None
        fs = [float(f(x)) for x in xs] if fs is None else fs.tolist()
        if any(map(math.isnan, fs)):
            first_nan = next(x for x, fx in zip(xs, fs) if math.isnan(fx))
            raise EvaluationError(f"f({first_nan}) is NaN")
        departs = self.departs
        for k, fx in enumerate(fs):
            if departs(fx, 0.0):
                return xs, fs, k
        return xs, fs, None

    def step(self, lo: float, hi: float):
        """Evaluate the nodes of [lo, hi] and pick the leftmost pair of
        adjacent points, endpoints included, whose signs differ.

        In a solve, f at ``lo`` has the sign the stepper was built with
        and f at ``hi`` departs from it, so the pair ends at the first
        departing node, or at ``hi`` when no node departs.  Returns the
        nodes, their f values, the chosen lo and hi, and the chosen hi
        when its value is zero (the exact root), else None.  A NaN node
        raises :class:`EvaluationError`; no pair can fail to change sign.
        """
        # every point before the leftmost change has the sign of f(lo), so
        # that change ends at the first point that departs from it
        if self.array_pass:
            xs, fs, k = self._vector_pass(lo, hi)
        else:
            xs, fs, k = self._list_pass(lo, hi)
        if k is None:
            return xs, fs, float(xs[-1]), hi, None
        x = float(xs[k])
        if k > 0:
            lo = float(xs[k - 1])
        return xs, fs, lo, x, x if fs[k] == 0.0 else None


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
    chosen hi when no node departs.  Raises :class:`NoSignChangeError`
    when the endpoint values and every node share one sign.
    """
    check_integer(sections, "sections")
    if f_lo is None:
        f_lo = float(f(interval.lo))
    if f_hi is None:
        f_hi = float(f(interval.hi))
    if math.isnan(f_lo) or math.isnan(f_hi):
        raise EvaluationError("endpoint function value is NaN")
    stepper = _Stepper(f, sections, f_lo)
    xs, fs, lo, hi, exact = stepper.step(interval.lo, interval.hi)
    if not any(stepper.departs(fx, 0.0) for fx in fs):
        # the chosen pair is the last node and interval.hi
        if not stepper.departs(f_hi, 0.0):
            raise NoSignChangeError(f"f_lo={f_lo}, f_hi={f_hi} and every node "
                                    f"of [{interval.lo}, {interval.hi}] share one sign")
        if f_hi == 0.0:
            exact = hi
    if f_lo == 0.0:
        exact = lo
    return _record(index, interval, xs, fs, lo, hi, exact)


def predicted_max_iterations(
    interval: Interval, width_tolerance: float, sections: int
) -> int:
    """Number of iterations the solver will run before its tracked width
    drops to ``width_tolerance``.

    This simulates the solver's own update (``w /= sections`` in binary64)
    bit for bit, so ``solve`` with the same arguments performs exactly this
    many iterations unless it lands on an exact zero first.  Equivalently
    it is the smallest M with width / N**M <= tol, up to the rounding of
    repeated division.
    """
    check_integer(sections, "sections")
    if not (width_tolerance > 0.0 and math.isfinite(width_tolerance)):
        raise DomainError(f"width_tolerance must be positive, got {width_tolerance}")
    return next(i for i, w in enumerate(widths(interval.width, sections))
                if w <= width_tolerance)


def solve(
    problem: Problem,
    options: Optional[SolveOptions] = None,
    *,
    backend: Optional[str] = None,
) -> SolveResult:
    """Run N-section passes to convergence.

    ``backend`` selects the evaluation engine: "numpy" (the reference
    path below), "numba" (a compiled kernel producing the same records),
    or None to defer to the MULTISECTION_BACKEND environment variable,
    read on every call, and then to auto-detection.  See
    :mod:`multisection.kernels`.
    """
    if options is None:
        options = SolveOptions()
    if kernels.resolve_backend(backend) == "numba":
        result = kernels.solve_numba(problem, options)
        if result is not None:
            return result
        logger.warning(
            "numba backend unavailable for problem %r; using numpy path", problem.id
        )
    return _solve_reference(problem, options)


def _first_smallest(fs) -> int:
    """The index of the first of the values of least magnitude: numpy's
    ``argmin`` on an array, plain Python on a list."""
    if isinstance(fs, np.ndarray):
        return int(np.abs(fs).argmin())
    magnitudes = list(map(abs, fs))
    return magnitudes.index(min(magnitudes))


def _solve_reference(problem: Problem, options: SolveOptions) -> SolveResult:
    """The plain Python/numpy solve loop.  Semantics live here; the numba
    kernel in :mod:`multisection.kernels` must match it record for record."""
    f = problem.f
    sections = options.sections
    tol = options.width_tolerance
    rtol = options.residual_tolerance

    f_lo, _, done = _validate_endpoints(f, problem.bracket)
    if done is not None:
        return done

    cap = math.inf if options.max_iterations is None else options.max_iterations
    step = _Stepper(f, sections, f_lo).step
    n = float(sections)  # the same bits as dividing by the int
    lo, hi = problem.bracket.lo, problem.bracket.hi
    w = hi - lo
    nodes_x, nodes_f, chosen_lo, chosen_hi = [], [], [], []
    iterations = 0

    while True:
        if w <= tol or iterations >= cap:
            termination = (Termination.WIDTH_REACHED if w <= tol
                           else Termination.MAX_ITERATIONS)
            root = lo + (hi - lo) / 2.0
            residual = float(f(root))  # diagnostic probe, not counted
            break

        xs, fs, lo, hi, exact = step(lo, hi)
        nodes_x.append(xs)
        nodes_f.append(fs)
        chosen_lo.append(lo)
        chosen_hi.append(hi)
        iterations += 1
        w /= n

        if exact is not None:
            termination, root, residual = Termination.EXACT_ZERO, exact, 0.0
            break
        if rtol > 0.0:
            best = _first_smallest(fs)
            if abs(fs[best]) <= rtol:
                termination = Termination.RESIDUAL_REACHED
                root, residual = float(xs[best]), float(fs[best])
                break

    return SolveResult(
        root=root,
        residual=residual,
        iterations=iterations,
        function_evaluations=2 + (sections - 1) * iterations,
        termination=termination,
        steps=Steps(problem.bracket, nodes_x, nodes_f, chosen_lo, chosen_hi),
    )


# last: kernels imports this module's types
from . import kernels  # noqa: E402
