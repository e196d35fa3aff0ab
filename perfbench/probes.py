"""Layer probes: fixed calls into single layers, timed from outside.

They give the per-layer figures that the workload ops cannot isolate
through the package's injection points (a solve's fixed cost, backend
resolution, the trace walk in convergence, the model and Lambert W, and
the fit), plus the ROADMAP's square-8 baseline cells.  Each figure is the
median over ``REPEATS`` batches, so one slow batch does not move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from multisection import (
    CostModel,
    ProblemScale,
    SolveOptions,
    efficiency_report,
    fit_linear,
    lambert_w0,
    measure_loop_time,
    resolve_backend,
    solve,
    verify_error_bounds,
)
from multisection.corpus import corpus

from .workloads import CALIBRATE_PROBLEM, VerifyWorkload

REPEATS = 15

#: N of the ROADMAP's baseline table for square-8.
BASELINE_N = (2, 10, 250)

#: A fixed model near the one this host calibrates to, so the work the
#: model probe times does not depend on a noisy fit.
PROBE_MODEL = CostModel(m=1.0e-7, c=6.0e-6)

#: lambert_w0 arguments: a log grid over the tested range [1e-8, 1e8].
W0_GRID = tuple(10.0 ** (k / 10) for k in range(-80, 81))


def seconds_per_call(fn, calls: int, repeats: int = REPEATS) -> float:
    """Median over batches of the mean time of ``calls`` calls of fn()."""
    batches = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        batches.append((time.perf_counter() - start) / calls)
    return statistics.median(batches)


def fixed_us() -> float:
    """``solve`` with no iterations: endpoint checks, residual probe and
    the result, per solve, over the corpus."""
    cases = [(p, SolveOptions(sections=2, max_iterations=0)) for p in corpus()]

    def run():
        for p, o in cases:
            solve(p, o)

    return seconds_per_call(run, 20) / len(cases) * 1e6


def check_us() -> float:
    """Per call, ``verify_error_bounds`` minus ``solve`` on the same case:
    the trace walk of convergence."""
    cases = VerifyWorkload(seed=0).cases
    diffs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for c in cases:
            verify_error_bounds(c.problem, c.sections)
        verify = time.perf_counter() - start
        start = time.perf_counter()
        for c in cases:
            solve(c.problem, c.options)
        diffs.append(verify - (time.perf_counter() - start))
    return statistics.median(diffs) / len(cases) * 1e6


def baseline_cells() -> dict[str, float]:
    """Per-loop time (``measure_loop_time``) and time of one ``f(xs)`` over
    the N - 1 nodes, for square-8 at each N of the ROADMAP table, in us."""
    problem = next(p for p in corpus() if p.id == CALIBRATE_PROBLEM)
    lo, hi = problem.bracket.lo, problem.bracket.hi
    cells = {}
    for n in BASELINE_N:
        loops = [measure_loop_time(problem, n).mean_loop_seconds for _ in range(5)]
        xs = lo + (np.arange(1, n, dtype=np.float64) * (hi - lo)) / n
        cells[f"square-8.N{n}.loop_us"] = statistics.median(loops) * 1e6
        cells[f"square-8.N{n}.f_us"] = seconds_per_call(lambda: problem.f(xs), 200) * 1e6
    return cells


def layer_probes(samples) -> dict[str, float]:
    """Every probe figure; ``samples`` are a calibration's timing samples,
    which the fit probe refits."""
    scale = ProblemScale(width=3.0)
    figures = {
        "solver.fixed_us": fixed_us(),
        "kernels.resolve_us": seconds_per_call(lambda: resolve_backend(None), 2000) * 1e6,
        "convergence.check_us": check_us(),
        "bench.fit_ms": seconds_per_call(lambda: fit_linear(samples), 5) * 1e3,
        "model.report_us": seconds_per_call(
            lambda: efficiency_report(PROBE_MODEL, scale, range(2, 251)), 10) * 1e6,
        "lambert.w0_us": seconds_per_call(
            lambda: [lambert_w0(x) for x in W0_GRID], 10) / len(W0_GRID) * 1e6,
    }
    figures.update(baseline_cells())
    return figures
