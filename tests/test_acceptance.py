"""Acceptance gate: one test per published criterion, in order.

Each test prints a single ``CRITERION n: PASS/FAIL`` line before its
assertions, so a plain ``pytest -v`` run doubles as the acceptance
report.  Criterion 7 is explicitly soft (reported, non-gating): its
numbers are host-dependent by design, so it prints SOFT-MISS instead of
failing.
"""

import math

import pytest

from multisection import (
    BoundViolation,
    CostModel,
    ProblemScale,
    SolveOptions,
    SweepConfig,
    SyntheticRunner,
    Termination,
    WallClockRunner,
    calibrate,
    check_w_identity,
    corpus,
    first_index_below,
    lambert_w0,
    n_min_integer,
    predicted_max_iterations,
    rel_eff,
    solve,
    total_function_evals,
    underflow_exponent,
    verify_error_bounds,
)
from multisection.cli import main as cli_main
from multisection.convergence import BoundSequence

MU = 2.0 ** -52

# Published model table: (R, N_min, RelEff) per row.
TABLE_ROWS = [
    (273.0, 81, 0.203),
    (217.0, 67, 0.214),
    (551.0, 140, 0.175),
    (360.0, 100, 0.191),
    (118.0, 43, 0.247),
    (144.0, 49, 0.236),
]


def report_line(n, ok, detail):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} — {detail}")


def bisection_oracle_w1(steps=200):
    """Textbook bisection of g(w) = w*e^w - 1 on [0, 1]."""
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = lo + (hi - lo) / 2
        if mid * math.exp(mid) - 1.0 <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo + (hi - lo) / 2


def test_criterion_1_table_reproduction():
    scale = ProblemScale(width=1.0)
    integers, mismatches = [], []
    for row, (ratio, n_expected, eff_expected) in enumerate(TABLE_ROWS, start=1):
        n_got = n_min_integer(ratio, CostModel(m=1.0, c=ratio), scale)
        eff_got = rel_eff(ratio)
        integers.append(n_got)
        if n_got != n_expected:
            mismatches.append(
                f"row {row}: R={ratio:g} gives N_min={n_got}, table says {n_expected}"
            )
        if abs(eff_got - eff_expected) > 0.002:
            mismatches.append(
                f"row {row}: R={ratio:g} gives RelEff={eff_got:.4f}, "
                f"table says {eff_expected}"
            )

    detail = (
        f"N_min computed {integers} vs published "
        f"{[n for _, n, _ in TABLE_ROWS]}; RelEff all within ±0.002"
        if not mismatches else "; ".join(mismatches)
    )
    report_line(1, not mismatches, detail)
    assert not mismatches, (
        "time-model argmin disagrees with the published integers on rows 2 "
        "and 6: T_t(68) < T_t(67) at R=217 and T_t(50) < T_t(49) at R=144 "
        "analytically, and no uniform rounding of N* reproduces all six "
        "rows (floor breaks rows 1, 3, 4, 5). The published integers for "
        "these two rows are not consistent with the published time model; "
        "details: " + "; ".join(mismatches)
    )


def test_criterion_2_lambert_w_suite():
    grid = [10.0 ** (-8.0 + 16.0 * k / 999.0) for k in range(1000)]

    worst_defining = 0.0  # in units of 2^-52 * x
    worst_identity = 0.0
    for x in grid:
        w = lambert_w0(x)
        worst_defining = max(worst_defining, abs(w * math.exp(w) - x) / (MU * x))
        worst_identity = max(worst_identity, check_w_identity(x))

    w1 = lambert_w0(1.0)
    w1_err = abs(w1 - 0.5671432904097838)
    oracle_err = abs(w1 - bisection_oracle_w1())

    ok = (worst_defining <= 4.0 and worst_identity <= 1e-12
          and w1_err <= 1e-12 and oracle_err <= 1e-12)
    report_line(
        2, ok,
        f"defining residual max {worst_defining:.3f} ulp·x (required ≤ 4), "
        f"identity max {worst_identity:.2e} (≤ 1e-12), "
        f"W(1) err {w1_err:.2e}, oracle err {oracle_err:.2e}",
    )
    assert worst_identity <= 1e-12
    assert w1_err <= 1e-12
    assert oracle_err <= 1e-12
    assert worst_defining <= 4.0, (
        f"the defining-equation clause is unattainable in binary64: the "
        f"measured max is {worst_defining:.3f} ulp·x, and the max over this "
        f"grid for the CORRECTLY ROUNDED W is already 4.773 ulp·x (rounding "
        f"W(x) to the nearest double perturbs w*e^w by ≈ (1+w)/2 ulp·x, "
        f"which exceeds 4 ulp·x for w > 7). No double-precision "
        f"implementation can satisfy ≤ 4 ulp·x on [1e-8, 1e8]."
    )


def test_criterion_3_solver_oracle_equivalence():
    worst_rel = 0.0
    checked = 0
    for problem in corpus():
        for sections in (2, 3, 10, 81):
            result = solve(problem, SolveOptions(sections=sections),
                           backend="numpy")
            rel = abs(result.root - problem.reference_root) / abs(problem.reference_root)
            worst_rel = max(worst_rel, rel)
            assert rel <= 2.0 ** -50, (problem.id, sections, rel)
            if result.termination is not Termination.EXACT_ZERO:
                predicted = predicted_max_iterations(
                    problem.bracket, MU, sections
                )
                assert result.iterations == predicted, (problem.id, sections)
            checked += 1
    report_line(
        3, True,
        f"{checked} solves: worst relative root error "
        f"{worst_rel:.3e} (≤ 2^-50 = {2.0 ** -50:.3e}); iteration counts "
        f"equal prediction on every non-exact-zero run",
    )


def test_criterion_4_error_bound_property():
    worst_margin = math.inf
    try:
        for problem in corpus():
            for sections in (2, 81):
                report = verify_error_bounds(problem, sections,
                                             backend="numpy")
                worst_margin = min(worst_margin, report.min_margin)
                seq = BoundSequence(problem.bracket.width, sections)
                assert first_index_below(seq, MU) == predicted_max_iterations(
                    problem.bracket, MU, sections
                )
    except BoundViolation as exc:
        report_line(4, False, f"bound violated: {exc}")
        raise
    report_line(
        4, True,
        f"all 12 problem/N runs inside B_i at every iteration (worst "
        f"strict margin {worst_margin:.3e}, absorbed by the 4-ulp "
        f"quantization allowance); first_index_below == "
        f"predicted_max_iterations throughout",
    )


def test_criterion_5_underflow_exponent(capsys):
    z = underflow_exponent(1.0)
    code = cli_main(["appendix", "--width", "1"])
    out = capsys.readouterr().out
    ok = z == 1075 and code == 0 and "z = 1024" in out
    report_line(
        5, ok,
        f"underflow_exponent(1) = {z} (subnormals); appendix report prints "
        f"the z = 1024 platform comparison without asserting it",
    )
    assert z == 1075
    assert code == 0
    assert "z = 1024" in out


def test_criterion_6_synthetic_calibration():
    problem = corpus()[3]
    config = SweepConfig(problem=problem)
    result = calibrate(problem, config, SyntheticRunner(2e-9, 5e-7))

    m_rel = abs(result.fit.m - 2e-9) / 2e-9
    c_rel = abs(result.fit.c - 5e-7) / 5e-7
    ratio_rel = abs(result.measured_ratio - result.report.rel_eff) \
        / result.report.rel_eff

    ok = (m_rel <= 1e-9 and c_rel <= 1e-9
          and result.fit.r_squared == 1.0 and ratio_rel <= 0.02)
    report_line(
        6, ok,
        f"m rel err {m_rel:.2e}, c rel err {c_rel:.2e} (≤ 1e-9); "
        f"r² = {result.fit.r_squared}; measured ratio "
        f"{result.measured_ratio:.5f} vs rel_eff {result.report.rel_eff:.5f} "
        f"({100 * ratio_rel:.3f}% ≤ 2%)",
    )
    assert m_rel <= 1e-9
    assert c_rel <= 1e-9
    assert result.fit.r_squared == 1.0
    assert ratio_rel <= 0.02


@pytest.mark.host_timing
def test_criterion_7_real_host_sweep_soft():
    problem = corpus()[2]
    config = SweepConfig(problem=problem, n_values=range(2, 251),
                         min_loops=1000, warmup_loops=100)
    runner = WallClockRunner(backend="numpy")
    result = calibrate(problem, config, runner)

    r_squared = result.fit.r_squared
    ratio_cm = result.report.R
    measured = result.measured_ratio

    misses = []
    if r_squared < 0.85:
        misses.append(f"r² {r_squared:.3f} < 0.85")
    if not 1e2 <= ratio_cm <= 1e4:
        misses.append(f"fitted c/m ratio {ratio_cm:.1f} outside ~10²-10³")
    if measured >= 0.5:
        misses.append(f"measured ratio {measured:.3f} not below 0.5")

    verdict = "PASS (soft, non-gating)" if not misses \
        else "SOFT-MISS (non-gating): " + "; ".join(misses)
    print(
        f"CRITERION 7: {verdict} — full sweep N ∈ [2,250], 1000 loops/N on "
        f"{problem.id}: r²={r_squared:.4f}, c/m={ratio_cm:.1f}, "
        f"N_min={result.report.n_min_integer}, measured "
        f"T(N_min)/T(2)={measured:.3f} (environment-dependent; numbers vary "
        f"by host and are not asserted)"
    )
    # non-gating by design: hosts differ, and that is the finding


def test_criterion_8_tf_minimality():
    scale = ProblemScale(width=1.0)
    values = [total_function_evals(n, scale) for n in range(2, 251)]
    increasing = all(a < b for a, b in zip(values, values[1:]))
    report_line(
        8, increasing,
        "(N-1)/ln N strictly increasing over N ∈ [2,250]: bisection "
        "minimizes total function evaluations",
    )
    assert increasing
