"""One conformance contract over every solve path that runs without numba.

Each case's outcome on each path must equal the default solve's (fields
and trace, or error type and message), and a result that iterated to a
width stop or an exact zero must equal :func:`textbook_multisection`
node for node.  The paths: ``list`` and ``array``, the numpy backend's
two passes, each forced at any N by moving
``solver.LIST_PASS_MAX_SECTIONS``; ``per-node``, f wrapped in
:class:`ScalarOnly`; ``kernel``, the numba kernel run uncompiled through
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
    """Wraps f so that it takes Python floats only, counting its calls."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        if type(x) is not float:
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

#: (problem, options, the error every path must raise or None).
CASES = [
    pytest.param(problem, SolveOptions(sections=n, **options), None,
                 id=f"{problem.id}-N{n}-{name}")
    for problem in (*corpus(), Problem(id="tied", f=_tied, bracket=Interval(0.0, 1.0)))
    for n in (2, 3, 5, 12, 13, 81, 250)
    for name, options in OPTIONS.items()
] + [
    pytest.param(problem, SolveOptions(sections=n), raises, id=f"{case}-N{n}")
    for n in (4, 13)
    for case, problem, raises in (
        ("nan-left", linear(0.6, nan_at=node(1, n)), EvaluationError),
        ("nan-right", linear(0.6, nan_at=node(n - 1, n)), EvaluationError),
        ("zero-first-node", linear(node(1, n)), None),
        ("zero-last-node", linear(node(n - 1, n)), None),
        ("zero-lo", linear(0.0), None),
        ("zero-hi", linear(1.0), None),
    )
] + [
    pytest.param(Problem(id="no-crossing", f=lambda x: x * x - 8.0,
                         bracket=Interval(3.0, 5.0)),
                 SolveOptions(), BracketError, id="no-sign-change"),
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


def check(path, problem, options, monkeypatch, raises=None):
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
    if raises is not None:
        assert expected[0] is raises
        assert got == expected
        calls = 2 + n - 1 if raises is EvaluationError else 2
    else:
        assert isinstance(expected, SolveResult), expected
        assert fields(got) == fields(expected)
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
    if path == "per-node":
        assert f.calls == calls
    return got


@pytest.mark.parametrize("problem,options,raises", CASES)
@pytest.mark.parametrize("path", PATHS)
def test_every_path_keeps_the_contract(monkeypatch, path, problem, options, raises):
    check(path, problem, options, monkeypatch, raises)
