"""One conformance contract over every solve path that runs without numba.

This is the per-path check of the package; the older per-path tests in
``test_solver.py`` and ``test_backends.py`` are views that call
:func:`check` on their own inputs.  Each case's outcome on
each path must equal the default solve's: the result with its hash and
trace (so steps kept as lists equal steps kept as arrays), or the error's
type and message.  The NaN, exact-zero and bracket cases also pin that
outcome literally.  A result that iterated to a width stop or an exact
zero must equal :func:`textbook_multisection` node for node.

The paths: ``list`` and ``array``, the numpy backend's two passes, each
forced at any N by moving ``solver.LIST_PASS_MAX_SECTIONS``;
``per-node``, f wrapped in :class:`ScalarOnly`, which must see one
rejected array call in a solve that ran a pass and none in one that did
not; ``kernel``, the numba kernel run uncompiled through
:class:`InterpretedNumba`.  Compiled numba runs only in
``test_backends.py`` (``TestParity``, ``TestFallback``).
"""

import math

import numpy as np
import pytest

from multisection import (
    BracketError,
    EvaluationError,
    Interval,
    MultisectionError,
    Problem,
    SolveOptions,
    SolveResult,
    Termination,
    corpus,
    solve,
)
from multisection import kernels, solver

MU = 2.0 ** -52

PATHS = ("list", "array", "per-node", "kernel")


class ScalarOnly:
    """Wraps f so that it takes Python floats only, counting the calls it
    accepts and the ones it rejects."""

    def __init__(self, f):
        self.f = f
        self.calls = 0
        self.rejected = 0

    def __call__(self, x):
        if type(x) is not float:
            self.rejected += 1
            raise TypeError("scalar-only function")
        self.calls += 1
        return float(self.f(x))


class InterpretedNumba:
    """Stands in for numba with ``njit`` as the identity, so the compiled
    backend's kernel runs as plain Python.  With ``compile_fails`` set,
    a jitted function raises ``NumbaError`` when called, as numba does
    when the first call's compile fails."""

    compile_fails = False

    class core:
        class errors:
            class NumbaError(Exception):
                pass

    @classmethod
    def njit(cls, *args, **kwargs):
        def jit(fn):
            if not cls.compile_fails:
                return fn

            def fails(*args):
                raise cls.core.errors.NumbaError(f"cannot compile {fn.__name__}")
            return fails
        return jit


def use_interpreted_numba(monkeypatch):
    monkeypatch.setattr(kernels, "_get_numba", lambda: InterpretedNumba)
    monkeypatch.setattr(kernels, "_compiled", {})


def textbook_multisection(problem, sections):
    """Independent N-section replay: scalar f, a list scan for the leftmost
    sign change, the same tracked width.  One (nodes, chosen subinterval)
    pair per iteration, as a trace record holds them."""
    def sgn(v):
        return (v > 0) - (v < 0)

    f = problem.f
    lo, hi = problem.bracket.lo, problem.bracket.hi
    f_lo, f_hi = float(f(lo)), float(f(hi))
    steps = []
    w = hi - lo
    while w > MU:
        span = hi - lo
        xs = [lo + (j * span) / sections for j in range(1, sections)]
        fs = [float(f(x)) for x in xs]
        pts = list(zip([lo, *xs, hi], [f_lo, *fs, f_hi]))
        k = next(k for k in range(1, len(pts)) if sgn(pts[k][1]) != sgn(pts[k - 1][1]))
        (lo, f_lo), (hi, f_hi) = pts[k - 1], pts[k]
        steps.append((tuple(zip(xs, fs)), Interval(lo, hi)))
        w /= sections
        if f_lo == 0.0 or f_hi == 0.0:
            break
    return steps


def _tied(x):
    """-1 up to 0.5 and +1 above it, so every node ties for the least |f|."""
    return (x > 0.5) * 2.0 - 1.0


def node(j, sections):
    """Node j of [0, 1] by the solver's node arithmetic."""
    return 0.0 + (j * 1.0) / sections


def linear(root, nan_at=math.nan):
    """``x - root`` on [0, 1], NaN at ``nan_at``; takes floats and arrays."""
    def f(x):
        return np.where(x == nan_at, np.nan, x - root)
    return Problem(id=f"linear-{root}", f=f, bracket=Interval(0.0, 1.0))


OPTIONS = {
    "default": {},
    "cap0": {"max_iterations": 0},
    "cap3": {"max_iterations": 3},
    "residual": {"residual_tolerance": 1e-9},
    "residual-tied": {"residual_tolerance": 1.0},
}

#: (problem, options, literal) where ``literal`` is None or what
#: :func:`brief` must give on every path: an error's type and message, or
#: an exact zero's root, termination and iteration count.
CASES = [
    pytest.param(problem, SolveOptions(sections=n, **options), None,
                 id=f"{problem.id}-N{n}-{name}")
    for problem in (*corpus(), Problem(id="tied", f=_tied, bracket=Interval(0.0, 1.0)))
    for n in (2, 3, 5, 12, 13, 81, 250)
    for name, options in OPTIONS.items()
] + [
    pytest.param(problem, SolveOptions(sections=n), literal, id=f"{case}-N{n}")
    for n in (4, 13)
    for case, problem, literal in (
        ("nan-left", linear(0.6, nan_at=node(1, n)),
         (EvaluationError, f"f({node(1, n)}) is NaN")),
        ("nan-right", linear(0.6, nan_at=node(n - 1, n)),
         (EvaluationError, f"f({node(n - 1, n)}) is NaN")),
        ("zero-first-node", linear(node(1, n)), (node(1, n), Termination.EXACT_ZERO, 1)),
        ("zero-last-node", linear(node(n - 1, n)),
         (node(n - 1, n), Termination.EXACT_ZERO, 1)),
        ("zero-lo", linear(0.0), (0.0, Termination.EXACT_ZERO, 0)),
        ("zero-hi", linear(1.0), (1.0, Termination.EXACT_ZERO, 0)),
    )
] + [
    pytest.param(Problem(id="no-crossing", f=lambda x: x * x - 8.0,
                         bracket=Interval(3.0, 5.0)),
                 SolveOptions(),
                 (BracketError, "f does not change sign over [3.0, 5.0]: "
                                "f(lo)=1.0, f(hi)=17.0"),
                 id="no-sign-change"),
]


def outcome(problem, options, backend="numpy"):
    """The result, or the error's type and message."""
    try:
        return solve(problem, options, backend=backend)
    except MultisectionError as exc:
        return type(exc), str(exc)


def fields(result):
    return (result.root, result.residual, result.iterations,
            result.function_evaluations, result.termination)


def brief(solved):
    """An error's type and message as they are; a result's root,
    termination and iteration count."""
    if isinstance(solved, tuple):
        return solved
    return solved.root, solved.termination, solved.iterations


def check(path, problem, options, monkeypatch, literal=None):
    """Solve on ``path`` and hold the outcome to the contract; return it."""
    expected = outcome(problem, options)
    solved, backend = problem, "numpy"
    if path == "list":
        monkeypatch.setattr(solver, "LIST_PASS_MAX_SECTIONS", options.sections)
    elif path == "array":
        monkeypatch.setattr(solver, "LIST_PASS_MAX_SECTIONS", 1)
    elif path == "per-node":
        f = ScalarOnly(problem.f)
        solved = Problem(problem.id, f, problem.bracket)
    else:
        use_interpreted_numba(monkeypatch)
        backend = "numba"
    got = outcome(solved, options, backend)

    n = options.sections
    if literal is None:
        assert isinstance(expected, SolveResult), expected
    else:
        assert brief(expected) == literal
    if isinstance(expected, tuple):  # the error's type and message
        assert got == expected
        nan = expected[0] is EvaluationError
        calls = 2 + n - 1 if nan else 2
        rejected = int(nan)
    else:
        assert got == expected and hash(got) == hash(expected)
        assert got.trace == expected.trace
        assert got.function_evaluations == 2 + (n - 1) * got.iterations
        if got.iterations and got.termination in (Termination.WIDTH_REACHED,
                                                  Termination.EXACT_ZERO):
            assert [(r.evaluated_nodes, r.chosen_subinterval) for r in got.trace] \
                == textbook_multisection(problem, n)
        if got.steps is not None:  # the nodes and values each path keeps
            kept = list if path in ("list", "per-node") else np.ndarray
            assert all(type(xs) is kept and type(fs) is kept
                       for xs, fs in zip(got.steps.nodes_x, got.steps.nodes_f))
        probe = got.termination in (Termination.WIDTH_REACHED,
                                    Termination.MAX_ITERATIONS)
        calls = got.function_evaluations + probe
        rejected = min(got.iterations, 1)
    if path == "per-node":
        # f rejects the first pass's array call, and the solve never asks again
        assert (f.calls, f.rejected) == (calls, rejected)
    return got


@pytest.mark.parametrize("problem,options,literal", CASES)
@pytest.mark.parametrize("path", PATHS)
def test_every_path_keeps_the_contract(monkeypatch, path, problem, options, literal):
    check(path, problem, options, monkeypatch, literal)
