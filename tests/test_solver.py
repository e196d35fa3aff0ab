"""Solver semantics: types, single steps, full solves, and invariants."""

import gc
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from multisection import solver
from multisection.solver import LIST_PASS_MAX_SECTIONS, Steps
from test_contract import ScalarOnly, check, fields, linear, textbook_multisection

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

    @pytest.mark.parametrize("root,iterations", [(0.1, 1), (0.9, 1), (1.0, 0), (0.0, 0)])
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
