"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from multisection import FitError, SyntheticRunner
from perfbench import run as bench
from perfbench import workloads
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_calibrate_path_recovers_synthetic_model_exactly():
    # powers of two: every loop time m*N + c and every sum of them is exact
    m, c = 2.0 ** -23, 2.0 ** -17
    workload = workloads.CalibrateWorkload()
    workload.inner = SyntheticRunner(m, c)
    tracer = Tracer()
    workload.attach(tracer)

    result, calls, traced = workload.op(tracer)
    tracer.fold()
    errors, tally = workload.check((result, calls, traced))

    assert errors == []
    assert (result.fit.m, result.fit.c, result.report.R) == (m, c, 64.0)
    assert result.fit.r_squared == 1.0
    sweep = [call for call in calls if call[3]]
    assert len(sweep) == len(workloads.CALIBRATE_N) * 11  # warm-up and ten batches
    assert tally.exact[0] == sum(loops for _, loops, _, _ in sweep)
    assert tracer.span_count("bench.runner") == len(calls)
    assert tracer.span_count("bench.calibrate") == 1


def _wrong_root(real_solve):
    def solve(problem, options=None, **kwargs):
        result = real_solve(problem, options, **kwargs)
        if problem.id == "sin-cos":
            result = replace(result, root=result.root + 1e-9)
        return result
    return solve


def _wrong_iterations(real_verify):
    def verify(problem, sections, **kwargs):
        report = real_verify(problem, sections, **kwargs)
        return replace(report, iterations=report.iterations + 1)
    return verify


def _fit_fails(*args, **kwargs):
    raise FitError("non-physical fit")


@pytest.mark.parametrize("name, target, liar", [
    ("solve-narrow", "solve", _wrong_root),
    ("solve-wide", "solve", _wrong_root),
    ("verify-scalar", "verify_error_bounds", _wrong_iterations),
    ("calibrate", "calibrate", lambda real: _fit_fails),
])
def test_planted_wrong_answer_raises_error_rate(monkeypatch, name, target, liar):
    workload = workloads.build(name, seed=1)
    if name == "calibrate":
        workload.inner = SyntheticRunner(2.0 ** -23, 2.0 ** -17)
    honest = bench.Run()
    reference = honest.record(workload, None)
    assert reference is not None and honest.failed == 0

    monkeypatch.setattr(workloads, target, liar(getattr(workloads, target)))
    run = bench.Run()
    assert run.record(workload, reference) is None
    assert run.failed / run.attempted > 0
    assert run.errors


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    outer = tracer.begin("outer", 7)
    for _ in range(3):
        inner = tracer.begin("inner")
        tracer.end(inner)
    tracer.end(outer)
    tracer.fold()

    assert tracer.by_n("inner")[7].count == 3  # n is inherited
    assert (tracer.self_ns("outer")
            == tracer.total_ns("outer") - tracer.total_ns("inner"))
    assert tracer.self_ns("inner") == tracer.total_ns("inner")


def test_tail_takes_highest_percentile_with_ten_beyond():
    assert bench.tail(list(range(1, 1001))) == (99, 990)
    assert bench.tail(list(range(1, 31))) == (60, 18)
    assert bench.tail(list(range(1, 6)))[0] == 50


def _run(*args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout, check=False,
    )


@pytest.mark.parametrize("trace, spec_key", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, spec_key):
    proc = _run("--workload", "all", "--seed", "2", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["correct"] is True

    expected = {f"{w['name']}.{m['name']}": m["unit"]
                for w in SPEC["workloads"] for m in SPEC[spec_key]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    for line in ("error_rate", *(["op_ms.p50", "op_ms.tail", "solves_per_s"] if trace == "0" else [])):
        assert proc.stdout.count(f" {line} ") == len(SPEC["workloads"]), line


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "solve-narrow", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
