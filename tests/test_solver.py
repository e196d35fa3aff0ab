"""Solver semantics: types, single steps, full solves, and invariants."""

import dataclasses
import gc
import math
import pickle
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multisection import (
    BracketError,
    DomainError,
    EvaluationError,
    Interval,
    NoSignChangeError,
    Problem,
    SolveOptions,
    SolveResult,
    Termination,
    corpus,
    multisect_step,
    predicted_max_iterations,
    solve,
    validate_bracket,
    verify_error_bounds,
)
from multisection import kernels, solver
from multisection.bench import SweepConfig
from multisection.solver import LIST_PASS_MAX_SECTIONS, Steps
from test_contract import (PATHS, Recording, ScalarOnly, check, fields, linear, outcome,
                           take, textbook_multisection, use_interpreted_numba)

MU = 2.0 ** -52

# Iterations each (problem index, N) pair must take to reach the width
# tolerance, derived independently: smallest M with width/N^M <= mu under
# iterated binary64 division (cross-checked against exact rationals in
# test_predicted_iterations_match_exact_rational_count below).
EXPECTED_M = {
    0: {2: 53, 3: 34, 10: 16, 81: 9},
    1: {2: 54, 3: 34, 10: 17, 81: 9},
    2: {2: 54, 3: 34, 10: 17, 81: 9},
    3: {2: 56, 3: 35, 10: 17, 81: 9},
    4: {2: 54, 3: 34, 10: 17, 81: 9},
    5: {2: 57, 3: 36, 10: 17, 81: 9},
}

# Problems whose function value hits exactly 0.0 at a node, ending the
# run early: inv-shift's root is the double 6.0; log-square's function
# crosses through a representable zero.  Iteration of first exact hit.
EXACT_ZERO_AT = {
    3: {2: 51, 3: 2, 10: 16, 81: 1},
    5: {2: 51, 3: 30, 10: 16, 81: 8},
}


def linear_problem(root, lo=-1.0, hi=1.0):
    return Problem(id="linear", f=lambda x: x - root, bracket=Interval(lo, hi))


class TestTypes:
    def test_interval_properties(self):
        iv = Interval(1.0, 4.0)
        assert iv.width == 3.0
        assert iv.midpoint() == 2.5

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0),
                                       (math.inf, 1.0), (0.0, math.nan),
                                       (-1e308, 1e308)])
    def test_interval_rejects_bad_endpoints(self, lo, hi):
        with pytest.raises(DomainError):
            Interval(lo, hi)

    def test_problem_rejects_reference_outside_bracket(self):
        with pytest.raises(DomainError):
            Problem(id="bad", f=lambda x: x, bracket=Interval(0.0, 1.0),
                    reference_root=2.0)

    def test_options_defaults(self):
        opts = SolveOptions()
        assert opts.sections == 2
        assert opts.width_tolerance == MU
        assert opts.residual_tolerance == 0.0
        assert opts.max_iterations is None

    @pytest.mark.parametrize("kwargs", [
        dict(sections=1),
        dict(sections=0),
        dict(width_tolerance=0.0),
        dict(width_tolerance=-1e-10),
        dict(residual_tolerance=-1.0),
        dict(max_iterations=-1),
        dict(sections=2.5),
        dict(sections=True),
        dict(max_iterations=2.5),
        dict(max_iterations=True),
        dict(residual_tolerance=math.nan),
        dict(residual_tolerance=math.inf),
    ])
    def test_options_validation(self, kwargs):
        with pytest.raises(DomainError):
            SolveOptions(**kwargs)

    def test_termination_values(self):
        assert Termination.EXACT_ZERO.value == "ExactZero"
        assert Termination.WIDTH_REACHED.value == "WidthReached"
        assert Termination.RESIDUAL_REACHED.value == "ResidualReached"
        assert Termination.MAX_ITERATIONS.value == "MaxIterations"


class TestValidateBracket:
    def test_sign_pairs_on_corpus(self):
        problems = corpus()
        assert validate_bracket(problems[0]) == (-1, 1)   # sin-cos
        assert validate_bracket(problems[2]) == (1, -1)   # square-8

    def test_all_corpus_brackets_valid(self):
        for problem in corpus():
            s_lo, s_hi = validate_bracket(problem)
            assert s_lo != s_hi

    def test_no_sign_change_raises(self):
        bad = Problem(id="bad", f=lambda x: x * x - 8.0,
                      bracket=Interval(3.0, 5.0))
        with pytest.raises(BracketError):
            validate_bracket(bad)

    def test_nan_raises(self):
        bad = Problem(id="nan", f=lambda x: math.nan, bracket=Interval(0.0, 1.0))
        with pytest.raises(EvaluationError):
            validate_bracket(bad)

    def test_single_zero_endpoint_is_valid(self):
        p = Problem(id="zero-lo", f=lambda x: x, bracket=Interval(0.0, 1.0))
        assert validate_bracket(p) == (0, 1)

    def test_both_endpoints_zero_rejected(self):
        p = Problem(id="double-zero", f=lambda x: x * (x - 1.0),
                    bracket=Interval(0.0, 1.0))
        with pytest.raises(BracketError):
            validate_bracket(p)


class TestMultisectStep:
    def test_exact_zero_at_midpoint(self):
        record = multisect_step(Interval(-1.0, 1.0), lambda x: x, 2)
        assert record.evaluated_nodes == ((0.0, 0.0),)
        assert record.exact_root == 0.0
        assert record.chosen_subinterval == Interval(-1.0, 0.0)

    def test_exact_zero_at_decimal_node(self):
        # node x_3 of [0,1] with N=10 is 0 + (3*1)/10, which rounds to the
        # same double as the literal 0.3 — so f(x) = x - 0.3 is exactly 0
        record = multisect_step(Interval(0.0, 1.0), lambda x: x - 0.3, 10)
        assert record.evaluated_nodes[2] == (0.3, 0.0)
        assert record.exact_root == 0.3
        assert record.chosen_subinterval == Interval(0.2, 0.3)

    def test_four_sections_on_sin_cos(self):
        f = corpus()[0].f
        record = multisect_step(Interval(0.0, math.pi / 2), f, 4)
        xs = [x for x, _ in record.evaluated_nodes]
        assert xs == [0.39269908169872414, 0.7853981633974483,
                      1.1780972450961724]
        signs = [math.copysign(1.0, fx) for _, fx in record.evaluated_nodes]
        # f at the middle node (the double nearest pi/4) is a hair below 0
        assert signs == [-1.0, -1.0, 1.0]
        assert record.exact_root is None
        assert record.chosen_subinterval == Interval(
            0.7853981633974483, 1.1780972450961724
        )

    def test_counts_nodes(self):
        for sections in (2, 3, 7, 81):
            record = multisect_step(Interval(1.0, 4.0), corpus()[1].f, sections)
            assert len(record.evaluated_nodes) == sections - 1

    def test_rejects_bad_sections(self):
        with pytest.raises(DomainError):
            multisect_step(Interval(0.0, 1.0), lambda x: x - 0.5, 1)

    @pytest.mark.parametrize("sections", [2.5, True])
    def test_rejects_non_integer_sections(self, sections):
        # 2.5 would otherwise place nodes at j/2.5 = 0.4 and 0.8
        with pytest.raises(DomainError, match=">= 2"):
            multisect_step(Interval(0.0, 1.0), lambda x: x - 0.5, sections)

    def test_no_sign_change_raises(self):
        with pytest.raises(NoSignChangeError):
            multisect_step(Interval(0.0, 1.0), lambda x: x + 1.0, 4)

    @pytest.mark.parametrize("f,given,end", [
        (lambda x: math.nan if x == 0.0 else x - 0.5, {}, "0.0"),
        (lambda x: x - 0.5, {"f_hi": math.nan}, "1.0"),
    ], ids=["nan-f-at-lo", "given-nan-f_hi"])
    def test_a_nan_endpoint_is_named_as_solve_names_it(self, f, given, end):
        message = rf"^f\({end}\) is NaN$"
        with pytest.raises(EvaluationError, match=message):
            multisect_step(Interval(0.0, 1.0), f, 3, **given)
        if not given:  # the same f and bracket, solved
            with pytest.raises(EvaluationError, match=message):
                solve(Problem("nan-lo", f, Interval(0.0, 1.0)))


class TestPredictedIterations:
    def test_known_counts(self):
        assert predicted_max_iterations(Interval(0.0, 1.0), MU, 2) == 52
        assert predicted_max_iterations(Interval(0.0, 1.0), MU, 16) == 13
        assert predicted_max_iterations(Interval(0.0, math.pi / 2), MU, 2) == 53

    def test_validation(self):
        with pytest.raises(DomainError):
            predicted_max_iterations(Interval(0.0, 1.0), MU, 1)
        with pytest.raises(DomainError):
            predicted_max_iterations(Interval(0.0, 1.0), 0.0, 2)

    @pytest.mark.parametrize("sections", [2.5, True])
    def test_rejects_non_integer_sections(self, sections):
        with pytest.raises(DomainError, match=">= 2"):
            predicted_max_iterations(Interval(0.0, 1.0), MU, sections)

    def test_wide_tolerance_means_zero_iterations(self):
        assert predicted_max_iterations(Interval(0.0, 1.0), 2.0, 2) == 0

    def test_predicted_iterations_match_exact_rational_count(self):
        """Oracle: the exact-rational smallest M with width/N^M <= mu.

        The implementation simulates binary64 iterated division; this
        confirms rounding drift never changes the count on the corpus
        grid (it could in principle, at astronomically unlikely
        boundaries)."""
        for problem in corpus():
            width = problem.bracket.width
            for sections in (2, 3, 10, 81):
                count = 0
                w = Fraction(width)
                mu = Fraction(MU)
                while w > mu:
                    w /= sections
                    count += 1
                assert predicted_max_iterations(
                    problem.bracket, MU, sections
                ) == count


class TestSolveExamples:
    def test_square8_bisection_root(self):
        result = solve(corpus()[2], SolveOptions(sections=2))
        assert abs(result.root - (-2.8284271247461903)) <= 2.0 ** -51
        assert result.termination is Termination.WIDTH_REACHED
        assert result.iterations == 54
        assert result.function_evaluations == 56

    def test_sincos_81_sections(self):
        result = solve(corpus()[0], SolveOptions(sections=81))
        assert abs(result.root - 0.7853981633974483) <= 2.0 ** -51
        assert result.iterations == 9

    def test_identity_function_exact_zero(self):
        result = solve(linear_problem(0.0))
        assert result.termination is Termination.EXACT_ZERO
        assert result.iterations == 1
        assert result.root == 0.0
        assert result.residual == 0.0
        assert result.function_evaluations == 3

    def test_zero_at_bracket_endpoint(self):
        p = Problem(id="zero-lo", f=lambda x: x, bracket=Interval(0.0, 1.0))
        result = solve(p)
        assert result.termination is Termination.EXACT_ZERO
        assert result.iterations == 0
        assert result.root == 0.0
        assert result.function_evaluations == 2
        assert result.trace == ()

    def test_inv_shift_exact_zero_all_sections(self):
        problem = corpus()[3]
        for sections, when in EXACT_ZERO_AT[3].items():
            result = solve(problem, SolveOptions(sections=sections))
            assert result.termination is Termination.EXACT_ZERO
            assert result.iterations == when
            assert result.root == 6.0
            last = result.trace[-1]
            assert last.exact_root == 6.0
            assert last.chosen_subinterval.hi == 6.0

    def test_max_iterations_cap(self):
        result = solve(corpus()[2], SolveOptions(sections=2, max_iterations=5))
        assert result.termination is Termination.MAX_ITERATIONS
        assert result.iterations == 5
        final = result.trace[-1].chosen_subinterval
        assert result.root == final.midpoint()
        assert abs(result.root - corpus()[2].reference_root) <= final.width

    def test_residual_tolerance_stops_early(self):
        problem = corpus()[2]
        result = solve(problem, SolveOptions(sections=2, residual_tolerance=1e-6))
        assert result.termination is Termination.RESIDUAL_REACHED
        assert abs(result.residual) <= 1e-6
        assert result.iterations < 54
        # the root is an evaluated node with that residual
        nodes = dict(result.trace[-1].evaluated_nodes)
        assert nodes[result.root] == result.residual

    @pytest.mark.parametrize("sections", [10, 50])
    def test_residual_stop_takes_the_first_of_tied_minima(self, sections):
        def f(x):
            x = np.asarray(x)
            return np.select([x < 0.3, x < 0.5, x < 0.7], [-1.0, -1e-3, 1e-3], 1.0)

        options = SolveOptions(sections=sections, residual_tolerance=1e-2)
        for g in (f, ScalarOnly(f)):
            result = solve(Problem(id="tied", f=g, bracket=Interval(0.0, 1.0)), options)
            # every node in [0.3, 0.7) has |f| = 1e-3; the leftmost wins
            assert (result.root, result.residual, result.iterations, result.termination) == (
                0.3, -1e-3, 1, Termination.RESIDUAL_REACHED)

    def test_nan_during_iteration(self):
        def f(x):
            return math.nan if 0.4 < x < 0.6 else x - 0.5

        with pytest.raises(EvaluationError):
            solve(Problem(id="nan-mid", f=f, bracket=Interval(0.0, 1.0)),
                  SolveOptions(sections=10))

    @pytest.mark.parametrize("path", PATHS)
    def test_a_cap_equal_to_the_pass_count_still_reaches_the_width(self, path):
        problem = corpus()[2]  # square-8 runs 34 passes at N = 3
        for cap, stop in ((34, Termination.WIDTH_REACHED), (33, Termination.MAX_ITERATIONS)):
            with pytest.MonkeyPatch.context() as monkeypatch:
                result = check(path, problem, SolveOptions(sections=3, max_iterations=cap),
                               monkeypatch)
            assert (result.termination, result.iterations) == (stop, cap)


class TestSolveGrid:
    @pytest.mark.parametrize("index", range(6))
    @pytest.mark.parametrize("sections", [2, 10])
    def test_iterations_and_root_accuracy(self, index, sections):
        problem = corpus()[index]
        result = solve(problem, SolveOptions(sections=sections))
        rel_err = abs(result.root - problem.reference_root) / abs(problem.reference_root)
        assert rel_err <= 2.0 ** -50
        if index in EXACT_ZERO_AT:
            assert result.termination is Termination.EXACT_ZERO
            assert result.iterations == EXACT_ZERO_AT[index][sections]
        else:
            assert result.termination is Termination.WIDTH_REACHED
            assert result.iterations == EXPECTED_M[index][sections]
        assert result.function_evaluations == (sections - 1) * result.iterations + 2

    def test_root_within_final_interval_width(self):
        for problem in corpus():
            result = solve(problem, SolveOptions(sections=3))
            final = result.trace[-1].chosen_subinterval
            assert abs(result.root - problem.reference_root) <= final.width


class TestRecordInvariants:
    @pytest.mark.parametrize("sections", [2, 5, 81])
    def test_trace_structure(self, sections):
        for problem in corpus():
            result = solve(problem, SolveOptions(sections=sections))
            assert len(result.trace) == result.iterations
            before = problem.bracket
            for i, record in enumerate(result.trace, start=1):
                assert record.index == i
                assert record.interval_before == before
                assert len(record.evaluated_nodes) == sections - 1
                chosen = record.chosen_subinterval
                # containment
                assert before.lo <= chosen.lo < chosen.hi <= before.hi
                # width law: one part in N, up to grid quantization
                expected = before.width / sections
                assert abs(chosen.width - expected) <= math.ulp(
                    max(abs(before.lo), abs(before.hi))
                )
                # nodes ascending and interior
                xs = [x for x, _ in record.evaluated_nodes]
                assert all(a <= b for a, b in zip(xs, xs[1:]))
                assert before.lo <= xs[0] and xs[-1] <= before.hi
                before = chosen

    def test_bracket_preservation(self):
        # f changes sign (or vanishes) across every chosen subinterval
        for problem in corpus():
            result = solve(problem, SolveOptions(sections=4))
            f = problem.f
            for record in result.trace:
                lo, hi = record.chosen_subinterval.lo, record.chosen_subinterval.hi
                f_lo, f_hi = float(f(lo)), float(f(hi))
                if record.exact_root is not None:
                    assert f(record.exact_root) == 0.0
                else:
                    assert (f_lo < 0) != (f_hi < 0)


class TestBisectionEquivalence:
    def test_matches_textbook_bisection_node_for_node(self):
        """N=2 must reproduce classic bisection exactly, node for node."""
        for problem in corpus():
            f = problem.f
            lo, hi = problem.bracket.lo, problem.bracket.hi
            f_lo = float(f(lo))
            reference_nodes = []
            w = hi - lo
            while w > MU:
                mid = lo + (hi - lo) / 2
                reference_nodes.append(mid)
                fm = float(f(mid))
                if fm == 0.0:
                    break
                if (f_lo < 0) != (fm < 0):
                    hi = mid
                else:
                    lo, f_lo = mid, fm
                w /= 2

            result = solve(problem, SolveOptions(sections=2))
            solver_nodes = [record.evaluated_nodes[0][0] for record in result.trace]
            assert solver_nodes == reference_nodes


class TestMultisectionOracle:
    @pytest.mark.parametrize("sections", [2, 3, 10, 12, 13, 250, 4096])
    def test_matches_textbook_replay_node_for_node(self, sections):
        for problem in corpus():
            trace = solve(problem, SolveOptions(sections=sections)).trace
            assert [(r.evaluated_nodes, r.chosen_subinterval) for r in trace] \
                == textbook_multisection(problem, sections)


SCALAR_OPTIONS = {
    "default": {},
    "cap 0": dict(max_iterations=0),
    "cap 3": dict(max_iterations=3),
    "residual 1e-9": dict(residual_tolerance=1e-9),
}


class TakesArraysFor:
    """Wraps f so that it takes its first ``passes`` arrays and raises
    TypeError on every later one, counting those; floats always pass."""

    def __init__(self, passes, f):
        self.f = f
        self.passes = passes
        self.rejected = 0

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            if not self.passes:
                self.rejected += 1
                raise TypeError("no more arrays")
            self.passes -= 1
        return self.f(x)


class TestScalarFallback:
    def test_scalar_only_function_matches_vectorized(self, monkeypatch):
        """A function that rejects arrays must give a bit-identical solve."""
        check("per-node", corpus()[1], SolveOptions(sections=7), monkeypatch)

    def test_array_rejection_is_decided_once_per_solve(self):
        # a list pass and an array pass, either side of the crossover
        for sections, evaluations in [(5, 98), (50, 492)]:
            calls = {"array": 0, "scalar": 0}

            def scalar_only(x):
                if isinstance(x, np.ndarray):
                    calls["array"] += 1
                    raise TypeError("scalar-only function")
                calls["scalar"] += 1
                return float(np.exp(x)) - 2.0 - x

            p = Problem(id="scalar-exp-gap", f=scalar_only, bracket=Interval(1.0, 4.0))
            result = solve(p, SolveOptions(sections=sections))
            assert result.termination is Termination.WIDTH_REACHED
            assert result.function_evaluations == evaluations
            assert calls == {"array": 1, "scalar": evaluations + 1}  # + the residual probe

    @pytest.mark.parametrize("sections", [3, 50])  # the list pass and the array pass
    def test_an_array_rejected_mid_solve_hands_the_rest_to_the_node_loop(self, sections):
        options = SolveOptions(sections=sections)
        before = list if sections <= LIST_PASS_MAX_SECTIONS else np.ndarray
        for problem in corpus():
            f = TakesArraysFor(3, problem.f)
            result = solve(Problem(problem.id, f, problem.bracket), options)
            expected = solve(problem, options)
            assert result == expected and result.trace == expected.trace
            assert f.rejected == int(result.iterations > 3)
            steps = result.steps
            for i, (xs, fs) in enumerate(zip(steps.nodes_x, steps.nodes_f)):
                kept = before if i < 3 else list
                assert type(xs) is kept and type(fs) is kept
            assert all(type(v) is float for seq in [*steps.nodes_x[3:], *steps.nodes_f[3:]]
                       for v in seq)

    @pytest.mark.parametrize("option", SCALAR_OPTIONS)
    @pytest.mark.parametrize("sections", [2, 3, 5, 81, 250])
    def test_scalar_twin_matches_vectorised_on_corpus(self, monkeypatch, sections, option):
        options = SolveOptions(sections=sections, **SCALAR_OPTIONS[option])
        for problem in corpus():
            check("per-node", problem, options, monkeypatch)

    @pytest.mark.parametrize("bad", [0.2, 0.8])
    def test_nan_node_either_side_of_the_sign_change(self, monkeypatch, bad):
        for sections in [10, 50]:  # the list pass and the array pass
            check("per-node", linear(0.5, nan_at=bad), SolveOptions(sections=sections),
                  monkeypatch, (EvaluationError, f"f({bad}) is NaN"))

    # an endpoint zero ends the solve before any pass, whatever N: the
    # contract's per-node zero-lo and zero-hi ids run it
    @pytest.mark.parametrize("root,iterations", [(0.1, 1), (0.9, 1)])
    def test_exact_zero_at_a_node_or_an_endpoint(self, monkeypatch, root, iterations):
        for sections in [10, 50]:  # the list pass and the array pass
            check("per-node", linear(root), SolveOptions(sections=sections), monkeypatch,
                  (root, Termination.EXACT_ZERO, iterations))

    @pytest.mark.parametrize("root", [0.0, 0.1, 0.35, 0.9, 1.0])
    def test_multisect_step(self, root):
        f = lambda x: x - root
        expected = multisect_step(Interval(0.0, 1.0), f, 10)
        record = multisect_step(Interval(0.0, 1.0), ScalarOnly(f), 10)
        assert record == expected
        if root in (0.0, 0.1, 0.9, 1.0):
            assert record.exact_root == root

    def test_no_sign_change(self):
        f = lambda x: x * x + 1.0
        with pytest.raises(NoSignChangeError) as expected:
            multisect_step(Interval(-1.0, 1.0), f, 4, f_lo=1.0, f_hi=1.0)
        with pytest.raises(NoSignChangeError) as raised:
            multisect_step(Interval(-1.0, 1.0), ScalarOnly(f), 4, f_lo=1.0, f_hi=1.0)
        assert str(raised.value) == str(expected.value)


class ArrayCalls:
    """Wraps an array-taking f, logging each call's argument type, dtype
    and shape."""

    def __init__(self, f):
        self.f = f
        self.calls = []

    def __call__(self, x):
        self.calls.append((type(x), getattr(x, "dtype", None), np.shape(x)))
        return self.f(x)


class TestPassChoice:
    @pytest.mark.parametrize("sections", [LIST_PASS_MAX_SECTIONS, LIST_PASS_MAX_SECTIONS + 1])
    def test_one_array_call_per_iteration_either_side_of_the_crossover(self, sections):
        endpoint = (float, None, ())
        nodes = (np.ndarray, np.float64, (sections - 1,))
        kept = list if sections <= LIST_PASS_MAX_SECTIONS else np.ndarray
        for problem in corpus():
            f = ArrayCalls(problem.f)
            result = solve(Problem(problem.id, f, problem.bracket),
                           SolveOptions(sections=sections))
            probe = result.termination is Termination.WIDTH_REACHED
            assert f.calls == ([endpoint] * 2 + [nodes] * result.iterations
                               + [endpoint] * probe)
            assert all(type(xs) is kept and type(fs) is kept
                       for xs, fs in zip(result.steps.nodes_x, result.steps.nodes_f))


class TestBothPasses:
    """The list pass and the array pass, each forced at the same N."""

    @pytest.mark.parametrize("option", SCALAR_OPTIONS)
    @pytest.mark.parametrize("sections", [2, 3, 5, 12, 13, 81, 250])
    def test_same_results_on_the_same_inputs(self, monkeypatch, sections, option):
        options = SolveOptions(sections=sections, **SCALAR_OPTIONS[option])
        for problem in corpus():
            for path in ("list", "array"):
                check(path, problem, options, monkeypatch)


class TestDeterminism:
    def test_repeat_solves_identical(self):
        for problem in corpus():
            options = SolveOptions(sections=10)
            assert solve(problem, options) == solve(problem, options)


class TestTrace:
    def test_built_once_and_cached(self):
        result = solve(corpus()[2], SolveOptions(sections=4))
        assert result.trace is result.trace

    def test_equality_and_hash_include_the_trace(self):
        options = SolveOptions(sections=10)
        a, b = solve(corpus()[0], options), solve(corpus()[0], options)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        # same fields, one iteration's node values changed: a different trace
        bracket, nodes_x, nodes_f, chosen_lo, chosen_hi = b.steps
        altered = [fs.copy() for fs in nodes_f]
        altered[0][0] = -altered[0][0]
        c = SolveResult(a.root, a.residual, a.iterations, a.function_evaluations,
                        a.termination,
                        Steps(bracket, nodes_x, altered, chosen_lo, chosen_hi))
        assert c != a
        assert c.trace[1:] == a.trace[1:]

    @pytest.mark.parametrize("sections", [13, 50])
    def test_steps_as_lists_equal_steps_as_arrays(self, sections):
        options = SolveOptions(sections=sections)
        for problem in corpus():
            arrayed = solve(problem, options)
            listed = solve(Problem(problem.id, ScalarOnly(problem.f), problem.bracket),
                           options)
            assert type(arrayed.steps.nodes_x[0]) is np.ndarray
            assert type(listed.steps.nodes_x[0]) is list
            assert listed == arrayed
            assert hash(listed) == hash(arrayed)

    def test_a_signed_zero_compares_as_in_the_trace(self):
        # inv-shift at N = 3 ends on a node whose value is exactly 0.0
        a = solve(corpus()[3], SolveOptions(sections=3))
        bracket, nodes_x, nodes_f, chosen_lo, chosen_hi = a.steps
        flipped = [np.array([-fx if fx == 0.0 else fx for fx in fs]) for fs in nodes_f]
        assert math.copysign(1.0, flipped[-1].min()) == -1.0
        b = SolveResult(a.root, a.residual, a.iterations, a.function_evaluations,
                        a.termination,
                        Steps(bracket, nodes_x, flipped, chosen_lo, chosen_hi))
        assert b.trace == a.trace
        assert b == a and hash(b) == hash(a)

    def test_equal_steps_mean_equal_traces_across_passes(self, monkeypatch):
        results = []
        for problem in corpus()[2:4]:
            for sections in (3, 13):
                for path in ("list", "array"):
                    for kwargs in ({}, dict(max_iterations=0), dict(max_iterations=3)):
                        results.append(check(path, problem,
                                             SolveOptions(sections=sections, **kwargs),
                                             monkeypatch))
        # the same fields, one node value changed
        a = results[0]
        bracket, nodes_x, nodes_f, chosen_lo, chosen_hi = a.steps
        altered = [list(fs) for fs in nodes_f]
        altered[-1][0] = math.nextafter(altered[-1][0], math.inf)
        results.append(SolveResult(a.root, a.residual, a.iterations,
                                   a.function_evaluations, a.termination,
                                   Steps(bracket, nodes_x, altered, chosen_lo, chosen_hi)))
        equal_pairs = 0
        for a in results:
            for b in results:
                same = fields(a) == fields(b) and a.trace == b.trace
                assert (a == b) is same
                equal_pairs += same and a is not b
        assert equal_pairs > 0


class TestStepperInvariants:
    @given(
        lo=st.floats(min_value=-100.0, max_value=99.0),
        width=st.floats(min_value=1e-3, max_value=50.0),
        frac=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        slope=st.sampled_from([1.0, -1.0]),
        quadratic=st.booleans(),
        sections=st.integers(min_value=2, max_value=300),
    )
    def test_every_chosen_lo_keeps_the_sign_of_f_at_the_bracket_lo(
            self, lo, width, frac, slope, quadratic, sections):
        hi = lo + width
        root = lo + frac * (hi - lo)
        if not (lo < root < hi):
            return  # rounding pushed the root onto an endpoint
        far = hi + width  # the quadratic's other root, outside the bracket

        def f(x):
            return slope * (x - root) * (far - x if quadratic else 1.0)

        result = solve(Problem(id="hyp", f=f, bracket=Interval(lo, hi)),
                       SolveOptions(sections=sections))
        s = solver.sign(f(lo))
        assert all(solver.sign(f(c)) == s for c in result.steps.chosen_lo)


class TestNoReferenceCycles:
    def test_a_solve_leaves_no_cyclic_garbage(self):
        problems = corpus()
        gc.collect()
        gc.disable()
        try:
            for sections in (5, 13, 250):  # the list pass and the array pass
                for problem in problems:
                    solve(problem, SolveOptions(sections=sections))
                    solve(Problem(problem.id, ScalarOnly(problem.f), problem.bracket),
                          SolveOptions(sections=sections))
            for problem in problems:
                verify_error_bounds(
                    Problem(problem.id, ScalarOnly(problem.f), problem.bracket,
                            problem.reference_root), 10)
            for sections in (5, 50):
                multisect_step(Interval(0.0, 1.0), lambda x: x - 0.35, sections)
                multisect_step(Interval(0.0, 1.0), ScalarOnly(lambda x: x - 0.35), sections)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestMemory:
    def test_a_result_keeps_its_values_and_no_nodes(self):
        # square-8 at N = 4096 runs five array passes: 8 bytes per value,
        # and 4 KiB for the arrays' headers, the ends and the result
        problem, options = corpus()[2], SolveOptions(sections=4096)
        solve(problem, options)  # warm-up: the memoised budget and numpy's caches
        tracemalloc.start()
        try:
            result = solve(problem, options)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= 8 * result.function_evaluations + 4096


class TestLinearProperties:
    @given(
        lo=st.floats(min_value=-100.0, max_value=99.0),
        width=st.floats(min_value=1e-3, max_value=50.0),
        frac=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        sections=st.integers(min_value=2, max_value=12),
    )
    def test_linear_root_recovery(self, lo, width, frac, sections):
        hi = lo + width
        root = lo + frac * (hi - lo)
        if not (lo < root < hi):
            return  # rounding pushed the root onto an endpoint
        problem = Problem(id="hyp-linear", f=lambda x: x - root,
                          bracket=Interval(lo, hi))
        options = SolveOptions(sections=sections)
        result = solve(problem, options)

        predicted = predicted_max_iterations(problem.bracket, MU, sections)
        assert result.iterations <= predicted
        if result.termination is Termination.WIDTH_REACHED:
            assert result.iterations == predicted
        assert result.function_evaluations == \
            (sections - 1) * result.iterations + 2
        if result.trace:
            final_width = result.trace[-1].chosen_subinterval.width
        else:
            final_width = problem.bracket.width
        assert abs(result.root - root) <= final_width


def magnitudes(least):
    """Positive floats whose binary exponents spread evenly from ``least``
    to the top of binary64 (underflowing to 0.0 below the subnormals)."""
    return st.builds(math.ldexp, st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
                     st.integers(min_value=least, max_value=1024))


class TestHugeBrackets:
    """No node is built outside the bracket: a (bracket, N) pair whose
    ``(N - 1) * width`` overflows, or an N beyond binary64, is refused
    before any backend runs."""

    @pytest.mark.parametrize("sections", [3, 13])
    def test_overflowing_nodes_raise_before_any_backend_runs(self, sections):
        calls = []

        def f(x):
            calls.append(x)
            return x - 3e307

        problem = Problem(id="huge", f=f, bracket=Interval(0.0, 1e308),
                          reference_root=3e307)
        for backend in ("numpy", "numba"):
            with pytest.raises(DomainError, match="overflow"):
                solve(problem, SolveOptions(sections=sections), backend=backend)
        with pytest.raises(DomainError, match="overflow"):
            multisect_step(problem.bracket, f, sections)
        assert calls == []

    @pytest.mark.parametrize("path", ["numpy", "kernel"])
    def test_more_nodes_than_one_array_holds_is_a_domain_error(self, monkeypatch, path):
        # 2**62 sections make more nodes than sys.maxsize // 8, the most
        # float64 values one array can address: refused before f is called
        calls = []

        def f(x):
            calls.append(x)
            return corpus()[2].f(x)

        problem, options = Problem("huge-n", f, corpus()[2].bracket), SolveOptions(2 ** 62)
        if path == "kernel":
            use_interpreted_numba(monkeypatch)
        with pytest.raises(DomainError, match=r"4611686018427387903 nodes per pass; at "
                                              rf"most {sys.maxsize // 8} nodes per pass"):
            solve(problem, options, backend="numba" if path == "kernel" else "numpy")
        with pytest.raises(DomainError, match="nodes per pass"):
            multisect_step(problem.bracket, f, options.sections)
        assert calls == []

    def test_a_section_count_beyond_binary64_is_a_domain_error(self):
        # 10**400 sections fail the count check; nothing is built or called
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.5

        bracket, sections = Interval(0.0, 1.0), 10 ** 400
        problem = Problem(id="huge-n", f=f, bracket=bracket)
        for attempt in (lambda: solve(problem, SolveOptions(sections=sections)),
                        lambda: multisect_step(bracket, f, sections),
                        lambda: predicted_max_iterations(bracket, MU, sections)):
            with pytest.raises(DomainError, match="sections must be at most"):
                attempt()
        assert calls == []

    @pytest.mark.parametrize("make", [
        lambda n: SolveOptions(sections=n),
        lambda n: SolveOptions(max_iterations=n),
        lambda n: SweepConfig(problem=corpus()[0], min_loops=n),
    ], ids=["sections", "max_iterations", "min_loops"])
    def test_a_count_too_long_to_print_is_a_domain_error(self, make):
        # -10**5000 has more digits than str() allows: the message gives its bits
        with pytest.raises(DomainError, match="got an integer of 16610 bits"):
            make(-10 ** 5000)

    @given(
        lo=st.builds(math.copysign, magnitudes(-1075), st.sampled_from([1.0, -1.0])),
        width=st.one_of(magnitudes(-1073), magnitudes(1000)),
        frac=st.floats(min_value=0.0, max_value=1.0),
        sections=st.integers(min_value=2, max_value=4096),
    )
    def test_a_solve_anywhere_in_binary64_stays_in_its_bracket(
            self, lo, width, frac, sections):
        hi = min(lo + width, 1.7e308)
        if not (lo < hi and math.isfinite(hi - lo)):
            return  # no bracket: Interval refuses it
        root = min(max(lo + frac * (hi - lo), lo), hi)
        problem = Problem(id="hyp-huge", f=lambda x: x - root, bracket=Interval(lo, hi))
        overflows = not math.isfinite((sections - 1) * (hi - lo))
        try:
            result = solve(problem, SolveOptions(sections=sections))
        except DomainError:
            assert overflows
            return
        assert not overflows
        assert lo <= result.root <= hi
        assert len(result.trace) == result.iterations
        assert all(lo <= x <= hi for record in result.trace
                   for x, _ in record.evaluated_nodes)
        if result.termination is Termination.WIDTH_REACHED:
            assert result.iterations == predicted_max_iterations(
                problem.bracket, MU, sections)

    # most examples run a few hundred passes, one Python call of f per
    # node on the per-node and kernel paths
    @settings(max_examples=8, deadline=None)
    @given(
        near=st.sampled_from([1.7e308, -1.7e308]),
        width=magnitudes(965),  # from under one spacing at 1.7e308 up
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @pytest.mark.parametrize("sections", [3, 13, 250])
    @pytest.mark.parametrize("path", PATHS)
    def test_each_records_nodes_are_the_bits_f_was_called_with(
            self, path, sections, near, width, frac):
        # the bracket has one end at near, and nodes that do not overflow
        width = min(width, 1.7e308 / (sections - 1))
        lo, hi = (near - width, near) if near > 0 else (near, near + width)
        if not lo < hi:
            return  # the width is lost in the end's rounding
        # a step with no zero, so every pass of the budget runs, past the
        # ends' collision to adjacent doubles
        step = min(max(lo + frac * (hi - lo), lo), math.nextafter(hi, lo))
        recording = Recording(lambda x: (x > step) * 2.0 - 1.0)

        def f(x):  # a function: the interpreted njit reads its name
            return recording(x)

        with pytest.MonkeyPatch.context() as monkeypatch:
            problem, backend = take(path, Problem("hyp-near-max", f, Interval(lo, hi)),
                                    sections, monkeypatch)
            result = solve(problem, SolveOptions(sections=sections), backend=backend)
            if path == "kernel":
                assert kernels._compiled[f] is not None  # the kernel ran
        # the per-node path's f records only the floats it accepts
        called = [x for arg in recording.args[2:]
                  for x in (arg.tolist() if isinstance(arg, np.ndarray) else [arg])]
        assert recording.args[:2] == [lo, hi]
        assert result.termination is Termination.WIDTH_REACHED
        assert len(called) == result.function_evaluations - 2 + 1  # and the probe
        for i, record in enumerate(result.trace):
            passed = called[i * (sections - 1):(i + 1) * (sections - 1)]
            assert [x.hex() for x, _ in record.evaluated_nodes] == [x.hex() for x in passed]

    # each example runs five solves and a textbook replay, most of them
    # one Python call of f per node
    @settings(max_examples=50)
    @given(
        lo=st.builds(math.copysign, magnitudes(-1075), st.sampled_from([1.0, -1.0])),
        width=st.one_of(magnitudes(-1073), magnitudes(1000)),
        frac=st.floats(min_value=0.0, max_value=1.0),
        sections=st.integers(min_value=2, max_value=4096),
    )
    def test_every_path_keeps_the_contract_anywhere_in_binary64(
            self, lo, width, frac, sections):
        hi = min(lo + width, 1.7e308)
        if not (lo < hi and math.isfinite(hi - lo)):
            return  # no bracket: Interval refuses it
        root = min(max(lo + frac * (hi - lo), lo), hi)
        problem = Problem(id="hyp-huge", f=lambda x: x - root, bracket=Interval(lo, hi))
        options = SolveOptions(sections=sections)
        if not math.isfinite((sections - 1) * (hi - lo)):
            expected = outcome(problem, options)
            assert expected[0] is DomainError
            for path in PATHS:  # refused before any backend evaluates f
                with pytest.MonkeyPatch.context() as monkeypatch:
                    solved, backend = take(path, problem, sections, monkeypatch)
                    assert outcome(solved, options, backend) == expected
            return
        # the passes recounted here: binary64 divisions of the width by N
        count, w = 0, hi - lo
        while w > MU:
            w /= sections
            count += 1
        for path in PATHS:
            with pytest.MonkeyPatch.context() as monkeypatch:
                result = check(path, problem, options, monkeypatch)
            assert lo <= result.root <= hi
            assert all(lo <= x <= hi for record in result.trace
                       for x, _ in record.evaluated_nodes)
            if result.termination is Termination.EXACT_ZERO:
                assert result.iterations <= count
            else:
                assert (result.termination, result.iterations) == \
                    (Termination.WIDTH_REACHED, count)


def int_index_nodes(lo, hi, sections):
    """One pass's nodes with the int index j, as the formula reads."""
    span = hi - lo
    return [lo + (j * span) / sections for j in range(1, sections)]


def pass_brackets(result):
    """Each pass's bracket: the solve's, then the pair each pass chose."""
    steps = result.steps
    return zip([steps.bracket.lo, *steps.chosen_lo], [steps.bracket.hi, *steps.chosen_hi])


class TestFloatNodeIndex:
    """The list and per-node passes index their nodes with floats; every
    node keeps the bits of the int-index formula."""

    def assert_int_index_nodes(self, result, sections):
        assert result.iterations == len(result.steps.nodes_x) > 0
        for xs, (lo, hi) in zip(result.steps.nodes_x, pass_brackets(result)):
            assert type(xs) is list
            assert ([x.hex() for x in xs]
                    == [x.hex() for x in int_index_nodes(lo, hi, sections)])

    @given(
        lo=st.builds(math.copysign, magnitudes(-1075), st.sampled_from([1.0, -1.0])),
        width=st.one_of(magnitudes(-1073), magnitudes(1000)),
        frac=st.floats(min_value=0.0, max_value=1.0),
        sections=st.integers(min_value=2, max_value=LIST_PASS_MAX_SECTIONS),
    )
    def test_list_pass(self, lo, width, frac, sections):
        hi = min(lo + width, 1.7e308)
        if not (lo < hi and math.isfinite((sections - 1) * (hi - lo))):
            return  # no bracket, or one whose nodes overflow
        root = min(max(lo + frac * (hi - lo), lo), hi)
        problem = Problem(id="hyp-nodes", f=lambda x: x - root, bracket=Interval(lo, hi))
        result = solve(problem, SolveOptions(sections=sections))
        if result.iterations:
            self.assert_int_index_nodes(result, sections)

    # each example at N = 4096 makes a few thousand Python calls of f
    @settings(max_examples=50, deadline=None)
    @given(
        ends=st.lists(st.floats(min_value=-1e304, max_value=1e304),
                      min_size=2, max_size=2, unique=True).map(sorted),
        frac=st.floats(min_value=0.0, max_value=1.0),
        sections=st.sampled_from([2, LIST_PASS_MAX_SECTIONS, 13, 50, 4096]),
    )
    def test_per_node_pass(self, ends, frac, sections):
        lo, hi = ends
        if lo == hi:
            return  # -0.0 and 0.0
        root = min(max(lo + frac * (hi - lo), lo), hi)
        f = ScalarOnly(lambda x: x - root)
        problem = Problem(id="hyp-nodes-scalar", f=f, bracket=Interval(lo, hi))
        result = solve(problem, SolveOptions(sections=sections, max_iterations=6))
        if result.iterations:
            assert f.rejected == 1
            self.assert_int_index_nodes(result, sections)


def division_recount(width, tolerance, sections):
    """The divisions ``w /= N`` from ``width`` to ``tolerance``, counted
    afresh on every call."""
    count = 0
    while width > tolerance:
        width /= sections
        count += 1
    return count


class TestMemoisedBudget:
    """The division count is memoised; every read equals a fresh count."""

    @given(
        lo=st.one_of(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                     st.floats(min_value=-1e300, max_value=1e300)),
        width=st.one_of(st.integers(min_value=1, max_value=10 ** 6), magnitudes(-1000)),
        tolerance=st.one_of(st.just(MU), magnitudes(-1074)),
        sections=st.integers(min_value=2, max_value=10 ** 6),
        cap=st.one_of(st.none(), st.integers(min_value=0, max_value=80)),
    )
    def test_budget_equals_a_fresh_count(self, lo, width, tolerance, sections, cap):
        hi = lo + width
        if not (lo < hi and math.isfinite(hi - lo)) or tolerance == 0.0:
            return
        bracket = Interval(lo, hi)
        options = SolveOptions(sections=sections, width_tolerance=tolerance,
                               max_iterations=cap)
        count = division_recount(hi - lo, tolerance, sections)
        expected = ((count, Termination.WIDTH_REACHED) if cap is None or count <= cap
                    else (cap, Termination.MAX_ITERATIONS))
        for _ in range(2):  # the second read comes from the cache
            assert predicted_max_iterations(bracket, tolerance, sections) == count
            assert solver._budget(bracket, options) == expected

    @pytest.mark.parametrize("sections", [2, 3, 7])
    def test_int_and_float_endpoints_share_a_key(self, sections):
        # Interval(0, 3) has the int width 3, which hashes and compares
        # equal to 3.0: both brackets read one cached count, and it is
        # each one's own count
        for bracket in (Interval(0.0, 3.0), Interval(0, 3), Interval(0.0, 3.0)):
            count = division_recount(bracket.width, MU, sections)
            assert predicted_max_iterations(bracket, MU, sections) == count
            assert solver._budget(bracket, SolveOptions(sections=sections)) == \
                (count, Termination.WIDTH_REACHED)
            result = solve(Problem("int-ends", lambda x: x - 1.0, bracket),
                           SolveOptions(sections=sections))
            assert result.iterations <= count


class TestZeroBudget:
    """A pass budget of 0 runs no pass loop on either backend: the root is
    the bracket's midpoint, probed for its residual, as a numpy solve's."""

    @pytest.fixture(params=[SolveOptions(sections=3, max_iterations=0),
                            SolveOptions(sections=3, width_tolerance=4.0)],
                    ids=["cap0", "under-tolerance"])
    def case(self, request):
        problem, options = corpus()[2], request.param
        reference = solve(problem, options, backend="numpy")
        assert (reference.root, reference.iterations, reference.function_evaluations) == \
            (problem.bracket.midpoint(), 0, 2)
        assert reference.residual == problem.f(problem.bracket.midpoint())
        return problem, options, reference

    def test_the_numpy_backend_runs_no_pass_loop(self, monkeypatch, case):
        problem, options, reference = case
        calls = []
        multisect = solver._multisect

        def recording(*args):
            calls.append(args)
            return multisect(*args)

        monkeypatch.setattr(solver, "_multisect", recording)
        assert solve(problem, options, backend="numpy") == reference
        assert calls == []

    def test_the_kernel_allocates_nothing(self, monkeypatch, case):
        problem, options, reference = case
        use_interpreted_numba(monkeypatch)
        shapes = []
        empty = kernels.np.empty

        def recording(shape, *args, **kwargs):
            shapes.append(shape)
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(kernels.np, "empty", recording)
        assert solve(problem, options, backend="numba") == reference
        assert kernels._compiled[problem.f] is not None  # the numba path ran
        assert shapes == []


class TestSolveResultInit:
    """``SolveResult`` sets its fields in one call, and is still the
    frozen dataclass it was."""

    def make(self):
        return solve(corpus()[0], SolveOptions(sections=3))

    def test_fields_and_defaults(self):
        assert [f.name for f in dataclasses.fields(SolveResult)] == [
            "root", "residual", "iterations", "function_evaluations",
            "termination", "steps"]
        result = SolveResult(1.0, 0.0, 0, 2, Termination.EXACT_ZERO)
        assert result.steps is None
        assert result == SolveResult(root=1.0, residual=0.0, iterations=0,
                                     function_evaluations=2,
                                     termination=Termination.EXACT_ZERO, steps=None)

    def test_repr_leaves_out_the_steps(self):
        result = self.make()
        assert repr(result) == (
            f"SolveResult(root={result.root!r}, residual={result.residual!r}, "
            f"iterations={result.iterations!r}, "
            f"function_evaluations={result.function_evaluations!r}, "
            f"termination={result.termination!r})")

    def test_frozen(self):
        result = self.make()
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.root = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del result.iterations

    def test_replace(self):
        result = self.make()
        changed = dataclasses.replace(result, iterations=1)
        assert changed.iterations == 1 and changed.steps is result.steps
        assert changed != result
        assert dataclasses.replace(result) == result

    def test_equality_and_hash(self):
        a, b = self.make(), self.make()
        assert a == b and hash(a) == hash(b)
        assert a != dataclasses.replace(a, root=0.0)
        assert hash(a) == hash((a.root, a.residual, a.iterations,
                                a.function_evaluations, a.termination))

    def test_pickle_round_trip(self):
        result = self.make()
        for read_trace in (False, True):
            if read_trace:
                result.trace
            back = pickle.loads(pickle.dumps(result))
            assert back == result and hash(back) == hash(result)
            assert back.trace == result.trace
