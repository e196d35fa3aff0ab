"""One conformance contract over every solve path that runs without numba.

This is the per-path check of the package; the older per-path tests in
``test_solver.py`` and ``test_backends.py`` are views that call
:func:`check` on their own inputs.  Each case's outcome on
each path must equal the default solve's: the result with its hash and
trace (so steps kept as lists equal steps kept as arrays), or the error's
type and message.  The NaN, exact-zero and bracket cases also pin that
outcome literally.  A result that iterated to a width stop or an exact
zero must equal :func:`textbook_multisection` node for node.  One
:func:`multisect_step` over a default case's bracket must equal the first
record of its default solve on every path that takes a step.

The paths: ``list`` and ``array``, the numpy backend's two passes, each
forced at any N by moving ``solver.LIST_PASS_MAX_SECTIONS``;
``per-node``, f wrapped in :class:`ScalarOnly`, which must see one
rejected array call in a solve that ran a pass and none in one that did
not; ``kernel``, the numba kernel run uncompiled through
:class:`InterpretedNumba`.  Compiled numba runs only in
``test_backends.py`` (``TestParity``, ``TestFallback``).

On the list and array paths f must get the endpoints and the probe as
Python floats and each pass's nodes in one float64 array; the chosen
ends are Python floats on every path, and so are the nodes and values
the list and per-node paths keep.
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
    multisect_step,
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
    backend's kernel runs as plain Python.  With ``compile_fails`` True,
    a jitted function raises ``NumbaError`` when called, as numba does
    when the first call's compile fails; set to a function's name, only
    that function does."""

    compile_fails = False

    class core:
        class errors:
            class NumbaError(Exception):
                pass

    @classmethod
    def njit(cls, *args, **kwargs):
        def jit(fn):
            name = getattr(fn, "__name__", None)
            if cls.compile_fails not in (True, name):
                return fn

            def fails(*args):
                raise cls.core.errors.NumbaError(f"cannot compile {name}")
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


def pinned(values, falling=False):
    """``x - 0.6`` on [0, 1], or ``0.6 - x`` when ``falling``, except at the
    points that ``values`` maps to a value; takes floats and arrays."""
    def f(x):
        y = 0.6 - x if falling else x - 0.6
        for at, value in values.items():
            y = np.where(x == at, value, y)
        return y
    return Problem(id="pinned-falling" if falling else "pinned",
                   f=f, bracket=Interval(0.0, 1.0))


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
] + [
    # the first NaN is named, left of every later one and past ±inf, on a
    # rising (f(lo) < 0) and a falling (f(lo) > 0) bracket alike
    pytest.param(pinned(values, falling), SolveOptions(sections=n),
                 (EvaluationError, f"f({node(first, n)}) is NaN"),
                 id=f"{case}-{'falling' if falling else 'rising'}-N{n}")
    for n in (4, 13)
    for falling in (False, True)
    for case, values, first in (
        ("nan-two", {node(2, n): math.nan, node(n - 1, n): math.nan}, 2),
        ("nan-after-infs", {node(1, n): math.inf, node(2, n): -math.inf,
                            node(3, n): math.nan}, 3),
    )
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


def take(path, problem, sections, monkeypatch):
    """Send solves and steps of ``problem`` at ``sections`` down ``path``;
    return the problem to run, with f wrapped on the per-node path, and
    the backend."""
    if path == "list":
        monkeypatch.setattr(solver, "LIST_PASS_MAX_SECTIONS", sections)
    elif path == "array":
        monkeypatch.setattr(solver, "LIST_PASS_MAX_SECTIONS", 1)
    elif path == "per-node":
        return Problem(problem.id, ScalarOnly(problem.f), problem.bracket), "numpy"
    else:
        use_interpreted_numba(monkeypatch)
        return problem, "numba"
    return problem, "numpy"


def check(path, problem, options, monkeypatch, literal=None):
    """Solve on ``path`` and hold the outcome to the contract; return it."""
    expected = outcome(problem, options)
    solved, backend = take(path, problem, options.sections, monkeypatch)
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
        assert (solved.f.calls, solved.f.rejected) == (calls, rejected)
    return got


@pytest.mark.parametrize("problem,options,literal", CASES)
@pytest.mark.parametrize("path", PATHS)
def test_every_path_keeps_the_contract(monkeypatch, path, problem, options, literal):
    check(path, problem, options, monkeypatch, literal)


@pytest.mark.parametrize("problem,options,literal",
                         [case for case in CASES if case.id.endswith("-default")])
@pytest.mark.parametrize("path", ("list", "array", "per-node"))
def test_one_step_is_the_first_record_of_a_solve(monkeypatch, path, problem, options, literal):
    first = solve(problem, options).trace[0]
    stepped, _ = take(path, problem, options.sections, monkeypatch)
    assert multisect_step(problem.bracket, stepped.f, options.sections) == first
    if path == "per-node":
        assert stepped.f.rejected == 1


class Recording:
    """Wraps f, keeping a copy of every argument it is called with."""

    def __init__(self, f):
        self.f = f
        self.args = []

    def __call__(self, x):
        self.args.append(x.copy() if isinstance(x, np.ndarray) else x)
        return self.f(x)


@pytest.mark.parametrize("problem,options,literal",
                         [case for case in CASES if case.id.endswith("-default")
                          and case.values[1].sections in (2, 12, 13, 250)])
@pytest.mark.parametrize("path", ("list", "array"))
def test_each_pass_calls_f_once_on_a_float64_array(monkeypatch, path, problem, options,
                                                   literal):
    """f sees the two endpoints and the probe as Python floats, and each
    pass's nodes as one float64 array of shape (N - 1,)."""
    taken, _ = take(path, problem, options.sections, monkeypatch)
    f = Recording(taken.f)
    result = solve(Problem(taken.id, f, taken.bracket), options)
    probe = result.termination is not Termination.EXACT_ZERO
    n = result.iterations
    assert len(f.args) == 2 + n + probe
    ends, passes, probed = f.args[:2], f.args[2:2 + n], f.args[2 + n:]
    assert all(type(x) is float for x in ends + probed)
    assert ends == [problem.bracket.lo, problem.bracket.hi]
    assert probed == ([result.root] if probe else [])
    for array, record in zip(passes, result.trace):
        assert type(array) is np.ndarray and array.dtype == np.float64
        assert array.shape == (options.sections - 1,)
        assert array.tolist() == [x for x, _ in record.evaluated_nodes]


@pytest.mark.parametrize("problem,options,literal",
                         [case for case in CASES if case.id.endswith("-default")])
@pytest.mark.parametrize("path", ("list", "array", "per-node"))
def test_steps_keep_python_floats(monkeypatch, path, problem, options, literal):
    """The chosen ends are Python floats on every path, and so are the
    nodes and values the list and per-node paths keep."""
    taken, _ = take(path, problem, options.sections, monkeypatch)
    steps = solve(taken, options).steps
    assert all(type(end) is float for end in [*steps.chosen_lo, *steps.chosen_hi])
    if path != "array":
        assert all(type(v) is float for seq in [*steps.nodes_x, *steps.nodes_f] for v in seq)


@pytest.mark.parametrize("problem,options,literal",
                         [case for case in CASES if case.id.endswith("-default")])
def test_the_kernel_keeps_python_float_ends(monkeypatch, problem, options, literal):
    """The kernel's chosen ends are Python floats, as on every other path."""
    taken, backend = take("kernel", problem, options.sections, monkeypatch)
    steps = solve(taken, options, backend=backend).steps
    assert all(type(end) is float for end in [*steps.chosen_lo, *steps.chosen_hi])


@pytest.mark.parametrize("path", PATHS)
def test_a_slice_of_the_nodes_lists_the_passes_it_selects(monkeypatch, path):
    taken, backend = take(path, corpus()[2], 4, monkeypatch)
    nodes = solve(taken, SolveOptions(sections=4), backend=backend).steps.nodes_x

    def hexes(passes):
        return [[float(x).hex() for x in xs] for xs in passes]

    for index in (slice(1, 3), slice(None, None, -1)):
        picked = nodes[index]
        assert type(picked) is list
        assert hexes(picked) == hexes([nodes[i] for i in range(len(nodes))[index]])


def test_the_kernel_runs_a_callable_without_a_name(monkeypatch):
    problem, options = corpus()[2], SolveOptions(sections=4)
    use_interpreted_numba(monkeypatch)
    f = Recording(problem.f)
    result = solve(Problem(problem.id, f, problem.bracket), options, backend="numba")
    assert kernels._compiled[f] is not None  # the kernel ran
    assert result == solve(problem, options, backend="numpy")
