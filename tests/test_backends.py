"""Backend selection and cross-backend agreement.

The compiled backend must be a faithful drop-in: same interval
arithmetic, same node schedule, same termination logic.  Roots may
differ by a few ulps only because the two backends' transcendental
libraries round differently.
"""

import ast
import functools
import inspect
import logging
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from multisection import (
    BracketError,
    DomainError,
    EvaluationError,
    Interval,
    Problem,
    SolveOptions,
    Termination,
    available_backends,
    corpus,
    resolve_backend,
    solve,
    verify_error_bounds,
)
from multisection import kernels, solver
from test_contract import (CASES, InterpretedNumba, check, node, outcome,
                           use_interpreted_numba)

ENV = "MULTISECTION_BACKEND"

numba_missing = "numba" not in available_backends()
needs_numba = pytest.mark.skipif(numba_missing, reason="numba not installed")


class TestResolution:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv(ENV, "numpy")
        assert resolve_backend(None) == "numpy"

    @needs_numba
    def test_env_selects_numba(self, monkeypatch):
        monkeypatch.setenv(ENV, "numba")
        assert resolve_backend(None) == "numba"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV, "numba")
        assert resolve_backend("numpy") == "numpy"

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV, "fortran")
        with pytest.raises(DomainError):
            resolve_backend(None)

    def test_invalid_explicit_rejected(self):
        with pytest.raises(DomainError):
            resolve_backend("fortran")

    def test_solve_reads_the_env_on_every_call(self, monkeypatch):
        problem = corpus()[2]
        monkeypatch.setenv(ENV, "numpy")
        expected = solve(problem)
        monkeypatch.setenv(ENV, "fortran")
        with pytest.raises(DomainError, match="MULTISECTION_BACKEND='fortran'"):
            solve(problem)
        monkeypatch.delenv(ENV)
        assert solve(problem) == expected

    @needs_numba
    def test_auto_prefers_numba(self, monkeypatch):
        monkeypatch.delenv(ENV, raising=False)
        assert resolve_backend(None) == "numba"


@needs_numba
class TestParity:
    @pytest.mark.parametrize("sections", [2, 3, 81])
    def test_corpus_agreement(self, sections):
        options = SolveOptions(sections=sections)
        for problem in corpus():
            a = solve(problem, options, backend="numpy")
            b = solve(problem, options, backend="numba")

            # the node schedule is pinned arithmetic: bit parity on the
            # first iteration regardless of library rounding
            xs_a = [x for x, _ in a.trace[0].evaluated_nodes]
            xs_b = [x for x, _ in b.trace[0].evaluated_nodes]
            assert xs_a == xs_b

            assert abs(a.root - b.root) <= 8 * math.ulp(abs(a.root))
            exact = Termination.EXACT_ZERO
            if a.termination is not exact and b.termination is not exact:
                assert a.iterations == b.iterations
            for result in (a, b):
                assert result.function_evaluations == \
                    (sections - 1) * result.iterations + 2

    def test_numba_deterministic(self):
        options = SolveOptions(sections=10)
        for problem in corpus():
            first = solve(problem, options, backend="numba")
            second = solve(problem, options, backend="numba")
            assert first == second

    def test_exact_zero_on_compiled_path(self):
        p = Problem(id="linear-jit", f=lambda x: x - 0.25,
                    bracket=Interval(0.0, 1.0))
        result = solve(p, SolveOptions(sections=4), backend="numba")
        assert result.termination is Termination.EXACT_ZERO
        assert result.root == 0.25
        assert result.residual == 0.0

    def test_endpoint_zero_on_compiled_path(self):
        p = Problem(id="zero-lo-jit", f=lambda x: x, bracket=Interval(0.0, 1.0))
        result = solve(p, backend="numba")
        assert result.termination is Termination.EXACT_ZERO
        assert result.iterations == 0
        assert result.trace == ()

    def test_residual_stop_on_compiled_path(self):
        options = SolveOptions(sections=2, residual_tolerance=1e-6)
        result = solve(corpus()[2], options, backend="numba")
        assert result.termination is Termination.RESIDUAL_REACHED
        assert abs(result.residual) <= 1e-6

    def test_max_iterations_on_compiled_path(self):
        options = SolveOptions(sections=2, max_iterations=5)
        result = solve(corpus()[2], options, backend="numba")
        assert result.termination is Termination.MAX_ITERATIONS
        assert result.iterations == 5

    def test_bracket_error_on_compiled_path(self):
        bad = Problem(id="no-crossing-jit", f=lambda x: x * x - 8.0,
                      bracket=Interval(3.0, 5.0))
        with pytest.raises(BracketError):
            solve(bad, backend="numba")

    def test_nan_function_on_compiled_path(self):
        bad = Problem(id="nan-jit", f=lambda x: np.nan,
                      bracket=Interval(0.0, 1.0))
        with pytest.raises(EvaluationError):
            solve(bad, backend="numba")


class _FlipsAfterEndpoints:
    """``x - 0.5`` for its first two calls (the bracket's ends), then
    ``0.5 - x``: a stateful f whose nodes disagree with its endpoints."""

    def __init__(self):
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return x - 0.5 if self.calls <= 2 else 0.5 - x


class TestInterpretedKernel:
    """The numba kernel's logic, run uncompiled.  The grid tests are
    views of the contract's ``kernel`` path kept under their own ids; the
    rest reach where the contract does not: the rows the kernel
    allocates, a stateful f, a failed compile and verify reading the
    kernel's arrays."""

    @pytest.fixture(autouse=True)
    def interpreted_numba(self, monkeypatch):
        use_interpreted_numba(monkeypatch)

    @pytest.mark.parametrize("options", [SolveOptions(sections=3),
                                         SolveOptions(sections=3, max_iterations=10_000)],
                             ids=["default", "cap10000"])
    def test_kernel_allocates_only_the_rows_its_budget_can_fill(self, monkeypatch, options):
        # square-8 at N = 3 runs its 34 passes; a cap above that adds no row
        shapes = []
        empty = kernels.np.empty

        def recording(shape, *args, **kwargs):
            shapes.append(shape)
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(kernels.np, "empty", recording)
        result = solve(corpus()[2], options, backend="numba")
        assert result.iterations == 34
        assert shapes == [(34, 2), 34, 34]

    @pytest.mark.parametrize("problem,options,literal", CASES)
    def test_conformance_grid(self, monkeypatch, problem, options, literal):
        check("kernel", problem, options, monkeypatch, literal)

    @pytest.mark.parametrize("sections", [2, 4, 13])
    def test_stateful_function(self, sections):
        options = SolveOptions(sections=sections)
        outcomes = [outcome(Problem(id="flips", f=_FlipsAfterEndpoints(),
                                    bracket=Interval(0.0, 1.0)), options, backend)
                    for backend in ("numba", "numpy")]
        assert outcomes[0] == outcomes[1]

    def test_compile_failure_falls_back(self, monkeypatch, caplog):
        monkeypatch.setattr(InterpretedNumba, "compile_fails", True)
        problem, options = corpus()[2], SolveOptions(sections=3)
        with caplog.at_level(logging.WARNING):
            result = solve(problem, options, backend="numba")
        assert any("compile failed" in r.message for r in caplog.records)
        assert any("using numpy path" in r.message for r in caplog.records)
        assert kernels._compiled[problem.f] is None
        assert result == solve(problem, options, backend="numpy")

    def test_a_cached_compile_failure_is_not_logged_again(self, monkeypatch, caplog):
        monkeypatch.setattr(InterpretedNumba, "compile_fails", True)
        problem, options = corpus()[2], SolveOptions(sections=3)
        with caplog.at_level(logging.WARNING):
            solve(problem, options, backend="numba")
            assert len(caplog.records) == 2  # compile failed, using numpy path
            caplog.clear()
            results = [solve(problem, options, backend="numba") for _ in range(2)]
        assert [r.message for r in caplog.records] == []
        assert results == [solve(problem, options, backend="numpy")] * 2

    def test_kernel_compile_failure_after_the_endpoints_falls_back(self, monkeypatch,
                                                                   caplog):
        # f compiles and is called at both ends; only the kernel fails
        monkeypatch.setattr(InterpretedNumba, "compile_fails", "kernel")
        problem, options = corpus()[2], SolveOptions(sections=3)
        args = []

        def f(x):
            args.append(x)
            return problem.f(x)

        with caplog.at_level(logging.WARNING):
            result = solve(Problem(problem.id, f, problem.bracket), options, backend="numba")
        ends = [problem.bracket.lo, problem.bracket.hi]
        assert args[:4] == ends + ends  # the numba path's, then the numpy path's
        assert any("compile failed" in r.message for r in caplog.records)
        assert any("using numpy path" in r.message for r in caplog.records)
        assert kernels._compiled[f] is None
        assert result == solve(problem, options, backend="numpy")

    @pytest.mark.parametrize("sections", [2, 10])
    def test_verify_reads_the_kernels_arrays(self, sections):
        for problem in corpus():
            compiled = verify_error_bounds(problem, sections, backend="numba")
            reference = verify_error_bounds(problem, sections, backend="numpy")
            assert compiled == reference
            assert all(type(m) is float for m in compiled.margins)

    def test_a_nan_pass_calls_f_at_every_node(self):
        # the node loop finishes the pass before it names the first NaN,
        # as the per-node path does: 2 + (N - 1) calls, not 2 + 4
        calls = []

        def f(x):
            calls.append(x)
            return math.nan if x in (node(4, 10), node(7, 10)) else x - 0.6

        with pytest.raises(EvaluationError) as raised:
            solve(Problem("nan", f, Interval(0.0, 1.0)), SolveOptions(sections=10),
                  backend="numba")
        assert kernels._compiled[f] is not None  # the kernel ran
        assert str(raised.value) == f"f({node(4, 10)}) is NaN"
        assert calls == [0.0, 1.0] + [node(j, 10) for j in range(1, 10)]


class TestNodeLoopSyntax:
    """The one scalar node loop is what numba compiles, but without numba
    it runs only as Python, which also runs much that nopython mode
    rejects.  So its syntax is held to what the compiled kernel needs."""

    @pytest.fixture(scope="class")
    def loop(self):
        kernel = solver._node_loop(math.sin)
        assert kernel.__name__ == "kernel"  # the name the compile-failure stand-in reads
        return ast.parse(textwrap.dedent(inspect.getsource(kernel))).body[0]

    def test_it_calls_only_f_float_abs_and_range(self, loop):
        called = [n.func for n in ast.walk(loop) if isinstance(n, ast.Call)]
        assert called and all(type(func) is ast.Name for func in called)  # no method call
        assert {func.id for func in called} <= {"f", "float", "abs", "range"}

    def test_it_has_no_comprehension_try_or_container(self, loop):
        banned = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.Lambda,
                  ast.Try, ast.With, ast.Raise, ast.List, ast.Set, ast.Dict, ast.Delete,
                  ast.Starred, ast.JoinedStr, ast.Yield, ast.Global, ast.Nonlocal,
                  ast.FunctionDef)
        assert [type(n).__name__ for n in ast.walk(loop)
                if n is not loop and isinstance(n, banned)] == []

    def test_it_reads_no_global_but_the_exit_codes(self, loop):
        names = [n for n in ast.walk(loop) if isinstance(n, ast.Name)]
        local = {a.arg for a in loop.args.args} | {n.id for n in names
                                                   if isinstance(n.ctx, ast.Store)}
        free = {n.id for n in names if isinstance(n.ctx, ast.Load)} - local
        assert free <= {"f", "float", "abs", "range", "_BUDGET", "_EXACT", "_RESIDUAL", "_NAN"}
        assert all(type(getattr(solver, name)) is int for name in free if name.startswith("_"))


class TestNumbaMissing:
    def test_a_numba_request_caches_nothing_and_warns_once(self, monkeypatch, caplog):
        monkeypatch.setattr(kernels, "_get_numba", lambda: None)
        monkeypatch.setattr(kernels, "_compiled", {})
        monkeypatch.setattr(kernels, "_numba_missing",
                            functools.cache(kernels._numba_missing.__wrapped__))
        options = SolveOptions(sections=3)
        problems = [Problem(f"line-{k}", lambda x, k=k: x - k / 4, Interval(0.0, 1.0))
                    for k in (1, 2, 3)]
        with caplog.at_level(logging.WARNING):
            results = [solve(p, options, backend="numba") for p in problems]
        assert kernels._compiled == {}
        assert [r.message for r in caplog.records] == [
            "numba backend requested but numba is not importable; using numpy path"]
        assert results == [solve(p, options, backend="numpy") for p in problems]


@needs_numba
class TestFallback:
    def test_unjittable_function_falls_back(self, caplog):
        table = {"slope": 1.0}

        def f(x):
            return table["slope"] * x - 0.5  # dict capture defeats the jit

        p = Problem(id="unjittable", f=f, bracket=Interval(0.0, 1.0))
        with caplog.at_level(logging.WARNING):
            result = solve(p, SolveOptions(sections=2), backend="numba")
        assert any("compile failed" in r.message for r in caplog.records)
        assert any("using numpy path" in r.message for r in caplog.records)

        reference = solve(p, SolveOptions(sections=2), backend="numpy")
        assert result == reference


class TestImport:
    def test_import_adds_only_the_stdlib_numpy_and_the_package(self):
        # what `import multisection` loads counts toward every caller's
        # start-up; numba and the rest load only when asked for
        source = os.path.dirname(os.path.dirname(kernels.__file__))
        code = ("import sys; before = set(sys.modules); "
                f"sys.path.insert(0, {source!r}); import multisection; "
                "print(*sorted(set(sys.modules) - before))")
        added = subprocess.run([sys.executable, "-c", code], check=True,
                               capture_output=True, text=True).stdout.split()
        assert "multisection.solver" in added and "numpy" in added
        allowed = sys.stdlib_module_names | {"numpy", "multisection"}
        assert [name for name in added if name.split(".")[0] not in allowed] == []
