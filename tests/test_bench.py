"""Timing harness: measurement protocol, exact-arithmetic fit, calibration."""

import math
import tracemalloc
from dataclasses import replace

import pytest

from multisection import (
    CalibrationResult,
    ClockError,
    CostModel,
    DegenerateError,
    DomainError,
    FitError,
    Interval,
    LinearFit,
    Problem,
    ProblemScale,
    SolveOptions,
    SweepConfig,
    SyntheticRunner,
    TimingSample,
    WallClockRunner,
    calibrate,
    corpus,
    efficiency_report,
    fit_linear,
    measure_loop_time,
    per_solve_seconds,
    predicted_max_iterations,
    read_sweep_csv,
    sweep,
    write_sweep_csv,
)

MU = 2.0 ** -52


def line_samples(m, c, ns, loop_count=1000):
    """Samples lying exactly on y = m*N + c (pick m, c, ns so the
    products are exact in binary64)."""
    return [
        TimingSample(N=n, mean_loop_seconds=m * n + c,
                     stddev_loop_seconds=0.0, loop_count=loop_count)
        for n in ns
    ]


class CountingRunner:
    """Records every timed_loops call and its N; 1 microsecond per loop."""

    def __init__(self, resolution=0.0):
        self.resolution = resolution
        self.calls = []
        self.sections = []

    def timed_loops(self, problem, options, target_loops):
        self.calls.append(target_loops)
        self.sections.append(options.sections)
        return target_loops, target_loops * 1e-6

    def timed_solves(self, problem, options, count):
        return count * 1e-6


class InterleavedRunner:
    """Runs every batch twice, back to back, on ``runner``, alternating
    which of the pair it returns; the other of each pair is kept for a
    :class:`ReplayRunner`.  Two measurements, one through this runner and
    one through the replay of what it kept, are then interleaved batch by
    batch, so a drift in the host's speed falls on both alike."""

    def __init__(self, runner):
        self.runner = runner
        self.resolution = runner.resolution
        self.kept = []

    def timed_loops(self, problem, options, target_loops):
        pair = [self.runner.timed_loops(problem, options, target_loops)
                for _ in range(2)]
        if len(self.kept) % 2:
            pair.reverse()
        self.kept.append(pair[1])
        return pair[0]


class ReplayRunner:
    """Returns the given ``(loops, elapsed)`` batches in order."""

    def __init__(self, batches, resolution):
        self.batches = iter(batches)
        self.resolution = resolution

    def timed_loops(self, problem, options, target_loops):
        return next(self.batches)


class TestSweepConfig:
    def test_defaults(self):
        config = SweepConfig(problem=corpus()[2])
        assert config.n_values == tuple(range(2, 251))
        assert config.min_loops == 1000
        assert config.warmup_loops == 100

    @pytest.mark.parametrize("kwargs", [
        dict(n_values=()),
        dict(n_values=(2, 1)),
        dict(min_loops=0),
        dict(warmup_loops=-1),
        dict(n_values=(2, 2.5)),
        dict(n_values=(2, True)),
        dict(min_loops=1000.0),
        dict(min_loops=True),
        dict(warmup_loops=2.5),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            SweepConfig(problem=corpus()[2], **kwargs)


class TestFitLinear:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_names_its_n(self, bad):
        samples = line_samples(2.0, 3.0, [2, 5, 9])
        samples[1] = TimingSample(N=5, mean_loop_seconds=bad,
                                  stddev_loop_seconds=0.0, loop_count=1000)
        with pytest.raises(DomainError, match="N=5"):
            fit_linear(samples)

    def test_non_finite_sample_read_from_csv(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(line_samples(2.0, 3.0, [2, 7]), path)
        path.write_text(path.read_text().replace("17.0", "nan"))
        samples = read_sweep_csv(path)
        assert math.isnan(samples[1].mean_loop_seconds)
        with pytest.raises(DomainError, match="N=7"):
            fit_linear(samples)

    def test_exact_line_recovered_bitwise(self):
        fit = fit_linear(line_samples(2.0, 3.0, range(2, 12)))
        assert fit.m == 2.0
        assert fit.c == 3.0
        assert fit.r_squared == 1.0

    def test_two_points_determine_the_line(self):
        fit = fit_linear(line_samples(2.0, 3.0, [2, 4]))
        assert fit == LinearFit(m=2.0, c=3.0, r_squared=1.0)

    def test_realistic_magnitudes(self):
        # host-like coefficients; the exact-rational accumulation keeps
        # the recovery at full double precision
        fit = fit_linear(line_samples(2e-9, 5e-7, range(2, 251)))
        assert abs(fit.m - 2e-9) <= 1e-12 * 2e-9
        assert abs(fit.c - 5e-7) <= 1e-12 * 5e-7
        assert fit.r_squared == 1.0

    def test_balanced_noise_leaves_line_unchanged(self):
        # the perturbation (+e, -e, -e, +e) at N = 2,3,4,5 is orthogonal
        # to both regressors (sum 0, N-weighted sum 0), so m and c are
        # bitwise those of the clean fit while r_squared drops below 1
        clean = line_samples(2.0, 3.0, [2, 3, 4, 5])
        eps = 0.25
        noisy = [
            TimingSample(N=s.N, mean_loop_seconds=s.mean_loop_seconds + d,
                         stddev_loop_seconds=0.0, loop_count=s.loop_count)
            for s, d in zip(clean, (eps, -eps, -eps, eps))
        ]
        fit_clean = fit_linear(clean)
        fit_noisy = fit_linear(noisy)
        assert fit_noisy.m == fit_clean.m
        assert fit_noisy.c == fit_clean.c
        assert fit_noisy.r_squared < 1.0

    def test_duplicating_samples_changes_nothing(self):
        base = line_samples(2.0, 3.0, [2, 5, 9]) + [
            TimingSample(N=5, mean_loop_seconds=14.0,
                         stddev_loop_seconds=0.0, loop_count=1000)
        ]
        assert fit_linear(base * 3) == fit_linear(base)

    def test_scaling_by_power_of_two_is_exact(self):
        base = line_samples(2.0, 3.0, [2, 3, 4, 5])
        noisy = [
            TimingSample(N=s.N, mean_loop_seconds=s.mean_loop_seconds + d,
                         stddev_loop_seconds=0.0, loop_count=s.loop_count)
            for s, d in zip(base, (0.25, -0.25, -0.25, 0.25))
        ]
        scaled = [
            TimingSample(N=s.N, mean_loop_seconds=s.mean_loop_seconds * 2.0 ** 30,
                         stddev_loop_seconds=0.0, loop_count=s.loop_count)
            for s in noisy
        ]
        fit = fit_linear(noisy)
        fit_scaled = fit_linear(scaled)
        assert fit_scaled.m == fit.m * 2.0 ** 30
        assert fit_scaled.c == fit.c * 2.0 ** 30
        assert fit_scaled.r_squared == fit.r_squared

    def test_needs_two_samples(self):
        with pytest.raises(DomainError):
            fit_linear(line_samples(2.0, 3.0, [7]))

    def test_single_n_is_degenerate(self):
        samples = [
            TimingSample(N=5, mean_loop_seconds=1.0,
                         stddev_loop_seconds=0.0, loop_count=100),
            TimingSample(N=5, mean_loop_seconds=2.0,
                         stddev_loop_seconds=0.0, loop_count=100),
        ]
        with pytest.raises(DegenerateError):
            fit_linear(samples)

    def test_negative_slope_is_a_fit_error(self):
        with pytest.raises(FitError):
            fit_linear(line_samples(-0.5, 3.0, [2, 3, 4, 5]))

    def test_zero_intercept_is_a_fit_error(self):
        with pytest.raises(FitError):
            fit_linear(line_samples(1.0, 0.0, [2, 3, 4, 5]))


class TestMeasureLoopTime:
    def test_synthetic_contract(self):
        runner = SyntheticRunner(2e-9, 5e-7)
        problem = corpus()[2]
        for n in (2, 50, 250):
            sample = measure_loop_time(problem, n, runner=runner)
            assert sample.N == n
            assert sample.loop_count >= 1000
            expected = 2e-9 * n + 5e-7
            assert abs(sample.mean_loop_seconds - expected) <= 1e-12 * expected
            assert sample.stddev_loop_seconds <= 1e-12 * expected

    def test_synthetic_cost_increases_with_n(self):
        runner = SyntheticRunner(2e-9, 5e-7)
        problem = corpus()[2]
        low = measure_loop_time(problem, 2, runner=runner)
        high = measure_loop_time(problem, 250, runner=runner)
        assert high.mean_loop_seconds > low.mean_loop_seconds

    def test_warmup_runs_and_is_discarded(self):
        runner = CountingRunner()
        sample = measure_loop_time(corpus()[2], 4, min_loops=100,
                                   warmup_loops=7, runner=runner)
        assert runner.calls[0] == 7          # warmup block first
        assert len(runner.calls) == 11       # plus ten timed batches
        assert sample.loop_count == 100      # warmup loops not counted

    def test_two_slowest_batches_left_out_of_the_mean(self):
        class StallingRunner(CountingRunner):
            def __init__(self, stalled):
                super().__init__()
                self.stalled = stalled

            def timed_loops(self, problem, options, target_loops):
                loops, elapsed = super().timed_loops(problem, options, target_loops)
                stalled = len(self.calls) in self.stalled
                return loops, elapsed * (1000.0 if stalled else 1.0)

        # two, then four, of the ten timed batches stall
        for stalled in ((4, 9), (2, 5, 8, 11)):
            sample = measure_loop_time(corpus()[2], 4, min_loops=100,
                                       warmup_loops=7,
                                       runner=StallingRunner(stalled))
            assert sample.mean_loop_seconds == 1e-6
            assert sample.loop_count == 100
            assert sample.stddev_loop_seconds > 1e-4

    def test_no_warmup_when_zero(self):
        runner = CountingRunner()
        measure_loop_time(corpus()[2], 4, min_loops=100, warmup_loops=0,
                          runner=runner)
        assert len(runner.calls) == 10

    def test_coarse_clock_raises(self):
        runner = CountingRunner(resolution=1.0)
        with pytest.raises(ClockError):
            measure_loop_time(corpus()[2], 4, min_loops=100, runner=runner)

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            measure_loop_time(corpus()[2], 1, runner=SyntheticRunner(1e-9, 1e-7))

    @pytest.mark.parametrize("n", [2.5, True])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(DomainError):
            measure_loop_time(corpus()[2], n, runner=SyntheticRunner(1e-9, 1e-7))

    @pytest.mark.parametrize("runner", [SyntheticRunner(1e-9, 1e-7), WallClockRunner()],
                             ids=["synthetic", "wall-clock"])
    @pytest.mark.parametrize("name,loops", [("min_loops", 0), ("min_loops", -5),
                                            ("warmup_loops", -3)])
    def test_rejects_bad_loop_counts(self, name, loops, runner):
        with pytest.raises(DomainError, match=f"{name} must be"):
            measure_loop_time(corpus()[2], 4, runner=runner, **{name: loops})

    def test_zero_iteration_solve_cannot_be_timed(self):
        p = Problem(id="zero-at-lo", f=lambda x: x, bracket=Interval(0.0, 1.0))
        runner = WallClockRunner(backend="numpy")
        with pytest.raises(DomainError):
            runner.timed_loops(p, SolveOptions(sections=2), 10)

    def test_synthetic_runner_honours_the_cap(self):
        # square-8 at N = 2 capped at 3 passes: four solves reach 10 loops
        p, options = corpus()[2], SolveOptions(sections=2, max_iterations=3)
        assert WallClockRunner(backend="numpy").timed_loops(p, options, 10)[0] == 12
        assert SyntheticRunner(1.0, 1.0).timed_loops(p, options, 10) == (12, 36.0)
        assert SyntheticRunner(1.0, 1.0).timed_solves(p, options, 1) == 9.0

    @pytest.mark.parametrize("runner", [SyntheticRunner(1.0, 1.0),
                                        WallClockRunner(backend="numpy")],
                             ids=["synthetic", "wall-clock"])
    def test_a_zero_pass_budget_raises_before_any_solve(self, runner):
        p, calls = corpus()[2], []

        def f(x):
            calls.append(x)
            return p.f(x)

        with pytest.raises(DomainError, match="nothing to time"):
            runner.timed_loops(Problem(p.id, f, p.bracket),
                               SolveOptions(sections=2, max_iterations=0), 10)
        assert calls == []

    def test_zero_pass_solves_take_no_synthetic_time(self):
        options = SolveOptions(sections=2, max_iterations=0)
        assert SyntheticRunner(1.0, 1.0).timed_solves(corpus()[2], options, 5) == 0.0

    def test_solves_that_stop_early_run_until_the_target(self):
        # each solve stops at the exact zero 0.5 after one of its 52 passes
        solves = []

        def f(x):
            if type(x) is float and x == 0.0:  # once a solve, at lo
                solves.append(x)
            return x - 0.5

        p = Problem(id="zero-at-half", f=f, bracket=Interval(0.0, 1.0))
        runner = WallClockRunner(backend="numpy")
        assert runner.timed_loops(p, SolveOptions(sections=2), 10)[0] == 10
        assert len(solves) == 10

    @pytest.mark.host_timing
    def test_real_clock_smoke(self):
        sample = measure_loop_time(corpus()[2], 2, min_loops=1000,
                                   runner=WallClockRunner(backend="numpy"))
        assert sample.loop_count >= 1000
        assert sample.mean_loop_seconds > 0.0

    @pytest.mark.host_timing
    def test_real_clock_repeatability(self):
        runner = InterleavedRunner(WallClockRunner(backend="numpy"))
        a = measure_loop_time(corpus()[2], 50, min_loops=1000, runner=runner)
        b = measure_loop_time(corpus()[2], 50, min_loops=1000,
                              runner=ReplayRunner(runner.kept, runner.resolution))
        spread = abs(a.mean_loop_seconds - b.mean_loop_seconds)
        limit = 0.2 * max(a.mean_loop_seconds, b.mean_loop_seconds)
        print(f"repeatability: {a.mean_loop_seconds:.3e} vs "
              f"{b.mean_loop_seconds:.3e} (spread {spread:.2e})")
        assert spread <= limit


class TestSweep:
    def test_full_default_grid(self):
        config = SweepConfig(problem=corpus()[2], min_loops=50, warmup_loops=0)
        samples = sweep(config, SyntheticRunner(2e-9, 5e-7))
        assert len(samples) == 249
        assert [s.N for s in samples] == list(range(2, 251))

    def test_interleaves_n(self):
        runner = CountingRunner()
        config = SweepConfig(problem=corpus()[2], n_values=[9, 2, 5],
                             min_loops=100, warmup_loops=7)
        samples = sweep(config, runner)
        # every warmup first, in ascending N, then ten rounds that each
        # visit every N once, round k in the order random.Random(k)
        # shuffles them to
        assert runner.sections[:3] == [2, 5, 9]
        rounds = [runner.sections[3 + 3 * k:6 + 3 * k] for k in range(10)]
        assert rounds == [
            [2, 9, 5], [5, 9, 2], [5, 9, 2], [5, 9, 2], [9, 5, 2],
            [2, 5, 9], [5, 2, 9], [9, 2, 5], [9, 5, 2], [2, 9, 5],
        ]
        assert runner.calls == [7] * 3 + [10] * 30
        assert [s.loop_count for s in samples] == [100] * 3

    def test_sorts_and_dedupes(self):
        config = SweepConfig(problem=corpus()[2], n_values=[81, 2, 81],
                             min_loops=50, warmup_loops=0)
        samples = sweep(config, SyntheticRunner(2e-9, 5e-7))
        assert [s.N for s in samples] == [2, 81]


class SlowStretchRunner(SyntheticRunner):
    """Loop time m*N + c, except that the first third of every round's
    timed batches take twice as long: a host that runs at half speed for
    a stretch of each round.  Use with ``warmup_loops=0``, so that every
    call is a timed batch and each round is ``len(n_values)`` calls."""

    def __init__(self, m, c, n_count):
        super().__init__(m, c)
        self.n_count = n_count
        self.batches = 0

    def timed_loops(self, problem, options, target_loops):
        loops, elapsed = super().timed_loops(problem, options, target_loops)
        slow = self.batches % self.n_count < self.n_count / 3
        self.batches += 1
        return loops, elapsed * (2.0 if slow else 1.0)


class TestHostileRunner:
    """A slow stretch at the same point of every round must not tilt the
    fitted line: each round visits the N in its own order, and the mean
    keeps the fastest half of the batches."""

    @pytest.mark.parametrize("n_values", [
        (2, 3, 4, 5, 7, 10, 14, 19, 26, 36, 50, 69, 95, 131, 181, 250),
        tuple(range(2, 251)),
    ], ids=["16-point", "249-N"])
    def test_fit_recovers_the_line(self, n_values):
        config = SweepConfig(problem=corpus()[2], n_values=n_values,
                             min_loops=100, warmup_loops=0)
        runner = SlowStretchRunner(2e-9, 5e-7, len(n_values))
        fit = fit_linear(sweep(config, runner))
        assert abs(fit.m - 2e-9) <= 0.1 * 2e-9
        assert abs(fit.c - 5e-7) <= 0.1 * 5e-7


class TestCsvRoundTrip:
    def test_write_read_bitwise(self, tmp_path):
        config = SweepConfig(problem=corpus()[2], n_values=[2, 17, 250],
                             min_loops=50, warmup_loops=0)
        samples = sweep(config, SyntheticRunner(2e-9, 5e-7))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(samples, path)

        header = path.read_text().splitlines()[0]
        assert header == "N,mean_loop_seconds,stddev_loop_seconds,loop_count"

        loaded = read_sweep_csv(path)
        assert loaded == samples
        assert fit_linear(loaded) == fit_linear(samples)

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sections,mean,std,count\n2,1.0,0.0,10\n")
        with pytest.raises(DomainError):
            read_sweep_csv(path)

    @pytest.mark.parametrize("row", [
        pytest.param("2,1e-6,1e-8", id="short-row"),
        pytest.param("", id="blank-line"),
        pytest.param("2,abc,1e-8,10", id="float-field-not-a-number"),
        pytest.param("2.5,1e-6,1e-8,10", id="N-not-an-int"),
        pytest.param("2,1e-6,1e-8,10,7", id="fifth-field"),
    ])
    def test_a_bad_row_is_a_domain_error_naming_its_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text("N,mean_loop_seconds,stddev_loop_seconds,loop_count\n"
                        f"3,1e-6,1e-8,10\n{row}\n4,1e-6,1e-8,10\n")
        with pytest.raises(DomainError, match="line 3"):
            read_sweep_csv(path)


class TestPerSolveSeconds:
    def test_synthetic_value(self):
        runner = SyntheticRunner(2e-9, 5e-7)
        problem = corpus()[2]
        for n in (2, 75):
            loops = predicted_max_iterations(problem.bracket, MU, n)
            expected = loops * (2e-9 * n + 5e-7)
            measured = per_solve_seconds(problem, n, runner)
            assert abs(measured - expected) <= 1e-12 * expected

    def test_coarse_clock_raises(self):
        # the sweep's rule: the resolution must be at most 1% of the span
        assert per_solve_seconds(corpus()[2], 4, CountingRunner(resolution=1e-9)) > 0.0
        with pytest.raises(ClockError, match="exceeds 1% of the measured span"):
            per_solve_seconds(corpus()[2], 4, CountingRunner(resolution=1.0))


class TestCalibrate:
    def test_synthetic_end_to_end(self):
        problem = corpus()[3]
        config = SweepConfig(problem=problem, min_loops=100, warmup_loops=0)
        result = calibrate(problem, config, SyntheticRunner(2e-9, 5e-7))

        assert isinstance(result, CalibrationResult)
        assert abs(result.fit.m - 2e-9) <= 1e-9 * 2e-9
        assert abs(result.fit.c - 5e-7) <= 1e-9 * 5e-7
        assert result.fit.r_squared == 1.0

        report = result.report
        assert abs(report.R - 250.0) <= 1e-6
        assert report.n_min_integer == 75
        assert abs(report.rel_eff - 0.20705058271871854) <= 1e-9
        # jitter-free runner: measurement matches the model to well
        # under the 2% the calibration contract asks for
        rel_gap = abs(result.measured_ratio - report.rel_eff) / report.rel_eff
        assert rel_gap <= 0.02

    def test_the_report_keeps_t_t_at_2_and_n_min_only(self):
        problem = corpus()[2]
        config = SweepConfig(problem=problem, n_values=(2, 3, 5, 10**5),
                             min_loops=100, warmup_loops=0)
        runner = SyntheticRunner(2e-9, 5e-7)
        calibrate(problem, config, runner)  # warm-up: the memoised budgets
        tracemalloc.start()
        try:
            result = calibrate(problem, config, runner)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        report = result.report
        assert report.curve == ((2, report.t_t_at_2),)
        full = efficiency_report(CostModel(result.fit.m, result.fit.c),
                                 ProblemScale(problem.bracket.width),
                                 n_range=range(2, 251))
        assert replace(full, curve=report.curve) == report
        # the samples, the fit and the report's scalars (2-3 KiB); a curve
        # over N = 2..10**5 would keep about 11.9 MB
        assert kept <= 8192

    def test_positional_problem_overrides_config(self):
        config = SweepConfig(problem=corpus()[0], n_values=[2, 40, 80],
                             min_loops=50, warmup_loops=0)
        result = calibrate(corpus()[3], config, SyntheticRunner(2e-9, 5e-7))
        loops = predicted_max_iterations(corpus()[3].bracket, MU, 2)
        assert result.samples[0].loop_count % loops == 0

    @pytest.mark.host_timing
    def test_real_mini_calibration(self):
        problem = corpus()[2]
        config = SweepConfig(problem=problem, n_values=(2, 120, 250),
                             min_loops=400, warmup_loops=100)
        runner = WallClockRunner(backend="numpy")
        try:
            result = calibrate(problem, config, runner)
        except FitError:
            try:
                result = calibrate(problem, config, runner)
            except FitError:
                pytest.skip("host too noisy for a 3-point calibration")
        print(f"mini calibration: R={result.report.R:.1f} "
              f"n_min={result.report.n_min_integer} "
              f"predicted={result.report.rel_eff_integer:.4f} "
              f"measured={result.measured_ratio:.4f}")
        assert result.fit.m > 0 and result.fit.c > 0
        assert 2 <= result.report.n_min_integer <= 250
        ratio = result.measured_ratio / result.report.rel_eff_integer
        assert 0.5 <= ratio <= 2.0
