"""The benchmark's workloads: their inputs, one op each, and the checks
every op's results must pass.

The package receives only the ``Problem``s and options built here.  The
seed shuffles the order of the cases and nothing else.  Expected values
are derived here, independently of the code under test: the iteration
count from the same repeated division the solver's tracked width uses,
and the bound B_i = width / N**i from repeated division too.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from multisection import (
    Problem,
    SolveOptions,
    SweepConfig,
    Termination,
    WallClockRunner,
    calibrate,
    solve,
    verify_error_bounds,
)
from multisection.corpus import corpus

from .reference import NARROW, WIDE
from .tracing import Tracer, traced_f

#: Problems whose reference root is an exact binary64 zero of f that the
#: solver lands on for every N used here, so they stop with ExactZero.
EXACT_ZERO_PROBLEMS = frozenset({"inv-shift", "log-square"})

#: Slack on B_i in ulp at the problem's scale, as convergence allows.
ALLOWANCE_ULPS = 4.0

#: Calibration exactly as the calibrate workload runs it.  The N grid is
#: geometric over [2, 250]: sweep() measures N in ascending order, and
#: when the host's speed steps up or down mid-sweep an evenly spaced
#: grid extrapolates the intercept c so far that it can turn negative
#: (a FitError in about 1 of 135 calibrations here); a grid dense at
#: small N keeps c positive under steps of 2x.
CALIBRATE_PROBLEM = "square-8"
CALIBRATE_N = (2, 3, 4, 5, 7, 10, 14, 19, 26, 36, 50, 69, 95, 131, 181, 250)
CALIBRATE_MIN_LOOPS = 500
CALIBRATE_WARMUP_LOOPS = 50
CALIBRATE_SPAN = "bench.runner"


def expected_iterations(width: float, tol: float, sections: int) -> int:
    """Iterations until the tracked width ``w /= sections`` reaches tol."""
    count = 0
    while width > tol:
        width /= sections
        count += 1
    return count


@dataclass(frozen=True)
class Case:
    """One problem at one N, with what a correct solve must satisfy."""

    problem: Problem
    options: SolveOptions
    f: Callable  # the corpus f, for evaluating at a returned root
    bounds: tuple[float, ...]  # B_0 .. B_predicted
    allowance: float
    exact_zero: bool

    @property
    def sections(self) -> int:
        return self.options.sections

    @property
    def predicted(self) -> int:
        return len(self.bounds) - 1


def make_case(problem: Problem, sections: int, f: Callable | None = None) -> Case:
    options = SolveOptions(sections=sections)
    lo, hi, ref = problem.bracket.lo, problem.bracket.hi, problem.reference_root
    bounds = [problem.bracket.width]
    while bounds[-1] > options.width_tolerance:
        bounds.append(bounds[-1] / sections)
    scale = max(abs(lo), abs(hi), abs(ref))
    return Case(
        problem=problem,
        options=options,
        f=f or problem.f,
        bounds=tuple(bounds),
        allowance=ALLOWANCE_ULPS * math.ulp(scale),
        exact_zero=problem.id in EXACT_ZERO_PROBLEMS,
    )


def check_solve(case: Case, result) -> str | None:
    """Why ``result`` is wrong for ``case``, or None when it is right."""
    n, it = case.sections, result.iterations
    if result.function_evaluations != (n - 1) * it + 2:
        return f"{result.function_evaluations} evaluations for {it} iterations"
    if case.exact_zero:
        if (result.termination is not Termination.EXACT_ZERO
                or it > case.predicted or case.f(result.root) != 0.0):
            return f"expected an exact zero, got {result.termination.value}"
    elif result.termination is not Termination.WIDTH_REACHED or it != case.predicted:
        return (f"expected WidthReached after {case.predicted} iterations, "
                f"got {result.termination.value} after {it}")
    if abs(result.root - case.problem.reference_root) > case.bounds[it] + case.allowance:
        return f"root {result.root!r} lies outside B_{it} + allowance"
    return None


@dataclass
class Tally:
    """Work one op did: loop iterations and counted evaluations per N,
    and whole solves.  ``exact`` holds the iterations and evaluations that
    must repeat exactly from op to op."""

    iterations: Counter = field(default_factory=Counter)
    evals: Counter = field(default_factory=Counter)
    solves: int = 0
    exact: list[int] = field(default_factory=lambda: [0, 0])

    def add(self, sections: int, iterations: int, solves: int = 1, exact: bool = True) -> None:
        evals = (sections - 1) * iterations + 2 * solves
        self.iterations[sections] += iterations
        self.evals[sections] += evals
        self.solves += solves
        if exact:
            self.exact[0] += iterations
            self.exact[1] += evals


class Workload:
    """A fixed list of inputs and one op over them.

    ``op`` returns what the package produced; ``check`` returns the
    errors found in it (none for a correct op) and the op's ``Tally``.
    With a tracer, ``op`` runs on inputs whose f records spans, and wraps
    each call into the layer in a span named ``span``.  ``reference`` is
    the shape of the reference kernel timed beside each op.
    """

    name: str
    span: str
    reference: tuple[int, int] = NARROW

    def op(self, tracer: Tracer | None = None):
        raise NotImplementedError

    def check(self, outcome) -> tuple[list[str], Tally]:
        raise NotImplementedError

    def attach(self, tracer: Tracer) -> None:
        raise NotImplementedError


class SolveWorkload(Workload):
    """``solve()`` over every corpus problem at each N, in seeded order."""

    span = "solver.solve"

    def __init__(self, name: str, sections: tuple[int, ...], seed: int,
                 reference: tuple[int, int] = NARROW):
        self.name = name
        self.reference = reference
        self.cases = [make_case(p, n) for p in corpus() for n in sections]
        random.Random(seed).shuffle(self.cases)
        self.inputs = [(c.problem, c.options) for c in self.cases]
        self.traced_inputs = None

    def attach(self, tracer: Tracer) -> None:
        self.traced_inputs = [
            (replace(p, f=traced_f(p.f, tracer)), o) for p, o in self.inputs
        ]

    def op(self, tracer=None):
        if tracer is None:
            return [solve(p, o) for p, o in self.inputs]
        results = []
        for p, o in self.traced_inputs:
            span = tracer.begin(self.span, o.sections)
            results.append(solve(p, o))
            tracer.end(span)
        return results

    def check(self, outcome):
        errors, tally = [], Tally()
        for case, result in zip(self.cases, outcome, strict=True):
            error = check_solve(case, result)
            if error:
                errors.append(f"{case.problem.id} N={case.sections}: {error}")
            tally.add(case.sections, result.iterations)
        return errors, tally


class ScalarTwin:
    """A corpus f that rejects arrays with TypeError, counting its calls."""

    def __init__(self, f: Callable):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        if type(x) is not float:
            raise TypeError("scalar-only function")
        self.calls += 1
        return float(self.f(x))


class VerifyWorkload(Workload):
    """``verify_error_bounds()`` over scalar-only twins of the corpus.

    Every node goes through the solver's scalar fallback.  A twin counts
    its scalar calls, which the check compares with the evaluation count
    a correct solve makes: two endpoints, N - 1 per iteration, and one
    residual probe when the solve stops on width.
    """

    span = "convergence.verify_error_bounds"

    def __init__(self, seed: int, sections: tuple[int, ...] = (2, 10, 50)):
        self.name = "verify-scalar"
        self.twins, self.cases = [], []
        for p in corpus():
            for n in sections:
                twin = ScalarTwin(p.f)
                self.twins.append(twin)
                self.cases.append(make_case(replace(p, f=twin), n, f=p.f))
        order = list(range(len(self.cases)))
        random.Random(seed).shuffle(order)
        self.twins = [self.twins[i] for i in order]
        self.cases = [self.cases[i] for i in order]
        self.problems = [c.problem for c in self.cases]
        self.traced_problems = None

    def attach(self, tracer: Tracer) -> None:
        self.traced_problems = [replace(p, f=traced_f(p.f, tracer)) for p in self.problems]

    def op(self, tracer=None):
        for twin in self.twins:
            twin.calls = 0
        if tracer is None:
            reports = [verify_error_bounds(p, c.sections) for p, c in zip(self.problems, self.cases)]
        else:
            reports = []
            for p, c in zip(self.traced_problems, self.cases):
                span = tracer.begin(self.span, c.sections)
                reports.append(verify_error_bounds(p, c.sections))
                tracer.end(span)
        return [(report, twin.calls) for report, twin in zip(reports, self.twins)]

    def check(self, outcome):
        errors, tally = [], Tally()
        for case, (report, calls) in zip(self.cases, outcome, strict=True):
            n, it = case.sections, report.iterations
            probe = 0 if case.exact_zero else 1
            error = None
            if calls != (n - 1) * it + 2 + probe:
                error = f"{calls} scalar calls for {it} iterations"
            elif case.exact_zero and it > case.predicted:
                error = f"{it} iterations, more than the {case.predicted} predicted"
            elif not case.exact_zero and it != case.predicted:
                error = f"{it} iterations, expected {case.predicted}"
            elif len(report.margins) != it or report.allowance != case.allowance:
                error = "report does not cover every iteration"
            elif any(m < -case.allowance for m in report.margins):
                error = "an estimate lies outside B_i + allowance"
            if error:
                errors.append(f"{case.problem.id} N={n}: {error}")
            tally.add(n, it)
        return errors, tally


class CountingRunner:
    """A LoopRunner that delegates to another and records, per call, the
    section count, the loops run, the loops one solve takes and whether
    the call belongs to the sweep.  With a tracer it also wraps each call
    in a ``bench.runner`` span.

    The sweep's loop count is fixed by the configuration; the solves
    timed after the fit run at the fitted N_min, which varies with the
    host's noise."""

    def __init__(self, inner, tracer: Tracer | None = None):
        self.inner = inner
        self.resolution = inner.resolution
        self.tracer = tracer
        self.calls: list[tuple[int, int, int, bool]] = []

    @staticmethod
    def _per_solve(problem, options) -> int:
        return expected_iterations(
            problem.bracket.width, options.width_tolerance, options.sections
        )

    def timed_loops(self, problem, options, target_loops):
        span = self.tracer.begin(CALIBRATE_SPAN, options.sections) if self.tracer else None
        loops, elapsed = self.inner.timed_loops(problem, options, target_loops)
        if span is not None:
            self.tracer.end(span)
        self.calls.append((options.sections, loops, self._per_solve(problem, options), True))
        return loops, elapsed

    def timed_solves(self, problem, options, count):
        span = self.tracer.begin(CALIBRATE_SPAN, options.sections) if self.tracer else None
        elapsed = self.inner.timed_solves(problem, options, count)
        if span is not None:
            self.tracer.end(span)
        per_solve = self._per_solve(problem, options)
        self.calls.append((options.sections, count * per_solve, per_solve, False))
        return elapsed


class CalibrateWorkload(Workload):
    """One full ``calibrate`` of square-8 with the wall-clock runner."""

    name = "calibrate"
    span = CALIBRATE_SPAN

    def __init__(self):
        self.problem = next(p for p in corpus() if p.id == CALIBRATE_PROBLEM)
        self.config = SweepConfig(
            problem=self.problem,
            n_values=CALIBRATE_N,
            min_loops=CALIBRATE_MIN_LOOPS,
            warmup_loops=CALIBRATE_WARMUP_LOOPS,
        )
        self.inner = WallClockRunner()
        self.traced_problem = None
        self.results = []  # untraced calibrations that passed their check

    def attach(self, tracer: Tracer) -> None:
        self.traced_problem = replace(self.problem, f=traced_f(self.problem.f, tracer))

    def op(self, tracer=None):
        runner = CountingRunner(self.inner, tracer)
        if tracer is None:
            return calibrate(self.problem, self.config, runner), runner.calls, False
        span = tracer.begin("bench.calibrate")
        result = calibrate(self.traced_problem, self.config, runner)
        tracer.end(span)
        return result, runner.calls, True

    def check(self, outcome):
        result, calls, traced = outcome
        errors, tally = [], Tally()
        for sections, loops, per_solve, sweep in calls:
            if loops % per_solve:
                errors.append(f"N={sections}: {loops} loops is not whole solves of {per_solve}")
            tally.add(sections, loops, loops // per_solve, exact=sweep)
        report = result.report
        if [s.N for s in result.samples] != list(CALIBRATE_N):
            errors.append("samples do not cover the configured N")
        if any(s.loop_count < CALIBRATE_MIN_LOOPS for s in result.samples):
            errors.append("a sample ran fewer loops than configured")
        if not (math.isfinite(report.R) and report.R > 0.0):
            errors.append(f"R = {report.R} is not finite and positive")
        if not (math.isfinite(result.fit.r_squared) and report.n_min_integer >= 2):
            errors.append("fit or N_min is not usable")
        if not (math.isfinite(result.measured_ratio) and result.measured_ratio > 0.0):
            errors.append(f"measured ratio {result.measured_ratio} is not usable")
        if not errors and not traced:
            self.results.append(result)
        return errors, tally


def build(name: str, seed: int) -> Workload:
    if name == "solve-narrow":
        return SolveWorkload(name, (2, 3, 5, 10), seed)
    if name == "solve-wide":
        return SolveWorkload(name, (250, 1000, 4096), seed, reference=WIDE)
    if name == "verify-scalar":
        return VerifyWorkload(seed)
    if name == "calibrate":
        return CalibrateWorkload()  # one case: no order for the seed to shuffle
    raise ValueError(f"unknown workload {name!r}")
