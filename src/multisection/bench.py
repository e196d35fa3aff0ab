"""Host calibration: measure per-loop solve cost as a function of N.

The package has one timing protocol.  It times *whole solves* and
divides by the work done — per-loop clock reads would perturb exactly
the quantity being measured — in ten rounds, each running one batch per
item measured in its own seeded shuffled order, so a drift in the
host's speed spreads over all items instead of tilting their
comparison; an item's mean keeps the fastest half of its ten batches.
:func:`sweep` times loops at each N with ``runner.timed_loops``, after a
discarded warmup block (cache and frequency ramp), for at least
``min_loops`` iterations per N; ``residual_tolerance`` is forced to 0 so
every loop performs exactly N - 1 evaluations, as ``t = m*N + c``
assumes.  :func:`calibrate` times whole solves at N = 2 and N_min with
``runner.timed_solves``: ``timed_loops`` is kept for the sweep's work,
which its config fixes, while N_min moves with the host's noise.

The clock is injectable: :class:`WallClockRunner` is the real thing,
and :class:`SyntheticRunner` replaces only its one primitive, which
times whole solves, with ``t = m*N + c`` per budgeted loop against a
fake clock; that makes the entire calibrate pipeline deterministic and
is the jitter-free oracle the tests use.

The least-squares fit runs in exact rational arithmetic (fractions) and
converts to float at the end: timing values span nine orders of
magnitude against N, and accumulating their products in binary64 loses
digits precisely where the synthetic oracle demands exactness.
"""

from __future__ import annotations

import csv
import logging
import math
import random
import statistics
import time
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Protocol

from .errors import ClockError, DegenerateError, DomainError, FitError
from .model import (
    DEFAULT_N_VALUES,
    CostModel,
    EfficiencyReport,
    ProblemScale,
    efficiency_report,
)
from .solver import (
    Problem,
    SolveOptions,
    _budget,
    check_integer,
    solve,
)

logger = logging.getLogger(__name__)

__all__ = [
    "TimingSample",
    "LinearFit",
    "SweepConfig",
    "CalibrationResult",
    "LoopRunner",
    "WallClockRunner",
    "SyntheticRunner",
    "measure_loop_time",
    "sweep",
    "fit_linear",
    "calibrate",
    "per_solve_seconds",
    "write_sweep_csv",
    "read_sweep_csv",
]

#: Exact CSV header for sweep output.
CSV_HEADER = "N,mean_loop_seconds,stddev_loop_seconds,loop_count"

_N_BATCHES = 10

#: Batches per sample that make its mean: the fastest ones.  A stall of
#: a few milliseconds lands in one batch of about a millisecond, and a
#: host that flips between two speeds for a stretch of a round slows
#: several; both only ever add time, and kept in they can flatten or
#: invert the fitted slope once the per-node cost is a few nanoseconds.
_KEPT_BATCHES = _N_BATCHES // 2


@dataclass(frozen=True)
class TimingSample:
    """Loop timing at one section count."""

    N: int
    mean_loop_seconds: float
    stddev_loop_seconds: float
    loop_count: int


@dataclass(frozen=True)
class LinearFit:
    """Least-squares t = m*N + c over timing samples."""

    m: float
    c: float
    r_squared: float


@dataclass(frozen=True, kw_only=True)
class SweepConfig:
    """What to measure: which problem, which N values, how many loops."""

    problem: Problem
    n_values: Sequence[int] = DEFAULT_N_VALUES
    min_loops: int = 1000
    warmup_loops: int = 100

    def __post_init__(self) -> None:
        if not self.n_values:
            raise DomainError("n_values must be nonempty")
        for n in self.n_values:
            check_integer(n, "every n_value")
        check_integer(self.min_loops, "min_loops", 1)
        check_integer(self.warmup_loops, "warmup_loops", 0)


@dataclass(frozen=True)
class CalibrationResult:
    """Everything calibrate produces, in one place.  ``report`` carries
    T_t at N = 2 and at N_min only: its curve is the one point
    ``((2, t_t_at_2),)``."""

    report: EfficiencyReport
    fit: LinearFit
    measured_ratio: float
    samples: tuple[TimingSample, ...]


class LoopRunner(Protocol):
    """Injectable execution-and-clock engine for measurements; the
    package's runners build both methods on one primitive (see
    :class:`WallClockRunner`)."""

    resolution: float

    def timed_loops(
        self, problem: Problem, options: SolveOptions, target_loops: int
    ) -> tuple[int, float]:
        """Run whole solves until >= target_loops loop iterations have
        executed; return (loops executed, elapsed seconds)."""
        ...

    def timed_solves(
        self, problem: Problem, options: SolveOptions, count: int
    ) -> float:
        """Run count full solves; return total elapsed seconds."""
        ...


class WallClockRunner:
    """Real solves timed with time.perf_counter, by one primitive,
    :meth:`_timed`: ``timed_solves`` is its seconds, and ``timed_loops``
    runs blocks of as many solves as the remaining loops need at the
    solver's pass budget, which is exact unless a solve stops at an
    exact zero or the residual (then another block runs)."""

    def __init__(self, backend: Optional[str] = None):
        self.backend = backend
        self.resolution = time.get_clock_info("perf_counter").resolution

    def _timed(self, problem: Problem, options: SolveOptions, solves: int) -> tuple[int, float]:
        """Run ``solves`` whole solves in one clock window; return
        (the loops they ran, elapsed seconds)."""
        loops = 0
        start = time.perf_counter()
        for _ in range(solves):
            loops += solve(problem, options, backend=self.backend).iterations
        return loops, time.perf_counter() - start

    def timed_loops(
        self, problem: Problem, options: SolveOptions, target_loops: int
    ) -> tuple[int, float]:
        budget = _budget(problem.bracket, options)[0]
        loops, elapsed = 0, 0.0
        while loops < target_loops or budget == 0:
            ran, seconds = (0, 0.0) if budget == 0 else self._timed(
                problem, options, -(-(target_loops - loops) // budget))
            if ran == 0:
                raise DomainError(f"solve of {problem.id!r} performs no loop "
                                  "iterations; nothing to time")
            loops, elapsed = loops + ran, elapsed + seconds
        return loops, elapsed

    def timed_solves(
        self, problem: Problem, options: SolveOptions, count: int
    ) -> float:
        return self._timed(problem, options, count)[1]


class SyntheticRunner(WallClockRunner):
    """Fake clock advancing by exactly t = m*N + c per loop iteration.

    No function is ever evaluated; each solve runs the solver's pass
    budget, which is exact unless a solve stops at an exact zero or the
    residual.  Deterministic, instant, and jitter-free.
    """

    def __init__(self, m: float, c: float):
        # non-physical m or c is allowed here on purpose: fit_linear is
        # the validator, and exercising its FitError path needs a runner
        # that will happily produce a decreasing or negative "time"
        self.m = m
        self.c = c
        self.resolution = 0.0

    def _timed(self, problem: Problem, options: SolveOptions, solves: int) -> tuple[int, float]:
        loops = solves * _budget(problem.bracket, options)[0]
        return loops, loops * (self.m * options.sections + self.c)


def _timed_rounds(measure, items,
                  resolution: float) -> tuple[list[float], list[list[tuple[int, float]]]]:
    """The one timing protocol: round k runs ``measure(item, k)`` -> (work,
    seconds) once per item, in the order ``random.Random(k)`` shuffles
    them to.  Returns each item's fastest-half mean and its batches.
    Raises :class:`ClockError` when the clock's ``resolution`` exceeds 1%
    of an item's measured span, the seconds of its ten batches."""
    batches: list[list[tuple[int, float]]] = [[] for _ in items]
    for round_index in range(_N_BATCHES):
        visits = list(zip(items, batches))
        random.Random(round_index).shuffle(visits)
        for item, timed in visits:
            timed.append(measure(item, round_index))
    for timed in batches:
        span = sum(sec for _, sec in timed)
        if resolution > 0.01 * span:
            raise ClockError(f"clock resolution {resolution}s exceeds 1% of the "
                             f"measured span {span}s")
    kept = [sorted(timed, key=lambda t: t[1] / t[0])[:_KEPT_BATCHES] for timed in batches]
    return [sum(sec for _, sec in k) / sum(work for work, _ in k) for k in kept], batches


def measure_loop_time(
    problem: Problem,
    N: int,
    min_loops: int = SweepConfig.min_loops,
    warmup_loops: int = SweepConfig.warmup_loops,
    *,
    runner: Optional[LoopRunner] = None,
) -> TimingSample:
    """Amortized per-loop wall time of N-section solves of ``problem``.

    Runs (and discards) a warmup block, then ten timed batches totalling
    at least ``min_loops`` loop iterations.  The mean is total elapsed
    over total loops of the fastest half of the batches; the recorded
    dispersion is the sample standard deviation of all ten per-batch
    means, and ``loop_count`` counts every timed loop.  Raises
    :class:`ClockError` when the clock's resolution exceeds 1% of the
    measured span.  Bad loop counts raise :class:`DomainError`, as in
    :class:`SweepConfig`.
    """
    check_integer(N, "N")
    config = SweepConfig(problem=problem, n_values=(N,), min_loops=min_loops,
                         warmup_loops=warmup_loops)
    return sweep(config, runner)[0]


def sweep(config: SweepConfig, runner: Optional[LoopRunner] = None) -> list[TimingSample]:
    """One TimingSample per configured N (see :func:`measure_loop_time`
    for what one sample holds), sorted by N; duplicate N values are
    measured once.

    The N are measured interleaved, by the module's one protocol with
    ``runner.timed_loops``: the warmup at every N first, then ten rounds
    in which each N runs one batch.  Round k visits the N in the order
    ``random.Random(k)`` shuffles them to.  A step in the host's speed
    partway through then lands on every N alike instead of on the N
    measured after it, which would tilt the fitted slope (and with a
    per-node cost this small, flip its sign); the shuffle keeps a slow
    stretch of a round from falling on the same N in every round.
    """
    if runner is None:
        runner = WallClockRunner()
    ns = sorted(set(config.n_values))
    options = [SolveOptions(sections=n) for n in ns]
    if config.warmup_loops > 0:
        for opts in options:
            runner.timed_loops(config.problem, opts, config.warmup_loops)

    batch_target = -(-config.min_loops // _N_BATCHES)
    means, batches = _timed_rounds(lambda opts, _: runner.timed_loops(
        config.problem, opts, batch_target), options, runner.resolution)

    samples = []
    for n, mean, timed in zip(ns, means, batches):
        batch_means = [elapsed / loops for loops, elapsed in timed]
        samples.append(TimingSample(
            N=n,
            mean_loop_seconds=mean,
            stddev_loop_seconds=statistics.stdev(batch_means),
            loop_count=sum(loops for loops, _ in timed),
        ))
        logger.info("sweep %s: N=%d mean=%.3e s/loop",
                    config.problem.id, n, samples[-1].mean_loop_seconds)
    return samples


def fit_linear(samples: Sequence[TimingSample]) -> LinearFit:
    """Unweighted OLS of mean_loop_seconds on N, in exact arithmetic.

    Needs at least two samples spanning two distinct N (two points
    determine the line exactly, with r² = 1 by construction — callers
    should treat such fits as low-confidence).  Raises
    :class:`DegenerateError` when all N coincide and :class:`FitError`
    when the fitted m or c is non-positive, which flags an unusable
    calibration rather than letting a nonsensical R propagate; the error
    carries the samples, so a caller can keep the measurement.  A sample
    whose mean is NaN or infinite raises :class:`DomainError` naming its N.
    """
    if len(samples) < 2:
        raise DomainError(f"need at least 2 samples, got {len(samples)}")
    for s in samples:
        if not math.isfinite(s.mean_loop_seconds):
            raise DomainError(f"the sample at N={s.N} has a non-finite "
                              f"mean_loop_seconds: {s.mean_loop_seconds}")
    if len({s.N for s in samples}) < 2:
        raise DegenerateError("all samples share one N; slope is undefined")

    xs = [Fraction(s.N) for s in samples]
    ys = [Fraction(s.mean_loop_seconds) for s in samples]
    count = len(samples)
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    d = count * sxx - sx * sx
    m = (count * sxy - sx * sy) / d
    c = (sy - m * sx) / count

    if m <= 0 or c <= 0:
        raise FitError(
            f"non-physical fit: m={float(m):.3e}, c={float(c):.3e} "
            "(both must be positive)",
            samples=tuple(samples),
        )

    y_bar = sy / count
    ss_res = sum((y - (m * x + c)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - y_bar) ** 2 for y in ys)
    r_squared = Fraction(1) if ss_res == 0 else 1 - ss_res / ss_tot
    return LinearFit(m=float(m), c=float(c), r_squared=float(r_squared))


def _solve_seconds(problem: Problem, ns: Sequence[int], runner: LoopRunner) -> list[float]:
    """Mean wall time of one full solve at each N of ``ns``, by :func:`_timed_rounds`
    with ``runner.timed_solves``: a thousand loops' solves per N, one a batch at least."""
    def batch(n, round_index):
        options = SolveOptions(sections=n)
        per_solve = _budget(problem.bracket, options)[0]
        solves = max(_N_BATCHES, -(-1000 // max(per_solve, 1)))
        count = solves // _N_BATCHES + (round_index < solves % _N_BATCHES)
        return count, runner.timed_solves(problem, options, count)

    return _timed_rounds(batch, ns, runner.resolution)[0]


def per_solve_seconds(problem: Problem, N: int, runner: LoopRunner) -> float:
    """Mean wall time of one full solve at N: calibrate's measurement
    for ``measured_ratio`` (:func:`_solve_seconds`) at one N.  Raises
    :class:`ClockError` by the sweep's rule: when the clock's resolution
    exceeds 1% of the measured span."""
    return _solve_seconds(problem, (N,), runner)[0]


def calibrate(
    problem: Problem,
    config: SweepConfig,
    runner: Optional[LoopRunner] = None,
) -> CalibrationResult:
    """Sweep, fit, and model in one pass.

    The positional ``problem`` is authoritative (the config's problem is
    replaced with it).  After fitting, the actual wall time of full
    solves at N=2 and at the fitted n_min_integer is measured and their
    ratio recorded beside the predicted rel_eff — prediction and
    measurement come from the same host minutes apart, which is the only
    comparison that transfers across machines (both timed by the sweep's
    protocol, with ``runner.timed_solves``).  The report carries T_t at
    N = 2 and at N_min only, the two the ratio needs; pass the fit to
    :func:`efficiency_report` with an ``n_range`` for a curve.  When the
    fit is unusable, the :class:`FitError` carries the sweep's samples.
    """
    if runner is None:
        runner = WallClockRunner()
    config = replace(config, problem=problem)

    samples = sweep(config, runner)
    fit = fit_linear(samples)

    scale = ProblemScale(width=problem.bracket.width)
    report = efficiency_report(CostModel(m=fit.m, c=fit.c), scale, n_range=(2,))

    t_2, t_min = _solve_seconds(problem, (2, report.n_min_integer), runner)
    return CalibrationResult(
        report=report,
        fit=fit,
        measured_ratio=t_min / t_2,
        samples=tuple(samples),
    )


def write_sweep_csv(samples: Sequence[TimingSample], path) -> None:
    """Write samples with the exact canonical header, full precision."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER.split(","))
        for s in samples:
            writer.writerow([
                s.N,
                repr(s.mean_loop_seconds),
                repr(s.stddev_loop_seconds),
                s.loop_count,
            ])


def read_sweep_csv(path) -> list[TimingSample]:
    """Inverse of :func:`write_sweep_csv`; round-trips exactly.  A row
    that is not four fields parsing as int, float, float and int raises
    :class:`DomainError` naming its line, as a foreign header does."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != CSV_HEADER.split(","):
            raise DomainError(f"unexpected sweep CSV header: {header!r}")
        return [_sample_row(row, reader.line_num) for row in reader]


def _sample_row(row: list[str], line: int) -> TimingSample:
    """One sweep CSV row as a sample; ``line`` is its line number."""
    if len(row) != 4:
        raise DomainError(
            f"sweep CSV line {line}: expected 4 fields, got {len(row)}: {row!r}"
        )
    try:
        return TimingSample(
            N=int(row[0]),
            mean_loop_seconds=float(row[1]),
            stddev_loop_seconds=float(row[2]),
            loop_count=int(row[3]),
        )
    except ValueError:
        raise DomainError(
            f"sweep CSV line {line}: expected an int, two floats and an int, "
            f"got {row!r}"
        ) from None
