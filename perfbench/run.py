#!/usr/bin/env python3
"""Benchmark of the multisection package.

Run from the repository root:

    python3 perfbench/run.py --workload solve-narrow --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One process runs one workload closed-loop: a single caller, no extra
threads, the next op only after the previous one returned.  Every op's
results are checked (see ``workloads``); an op that raises or fails a
check counts as failed.  ``--workload all`` runs each workload in turn,
each in its own process so each reports its own peak memory.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops, derives the per-layer metrics from the spans of
the traced ones (see ``tracing``) and from the layer probes (see
``probes``), reports the tracing overhead as the difference of the two
medians, and writes the spans to ``.perfbench-out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The package is
imported from ``src/`` of the checkout this file sits in; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOAD_NAMES = ("solve-narrow", "solve-wide", "verify-scalar", "calibrate")

#: Set-ups in fresh interpreters before and after the measured ops;
#: setup_s is the median of these and the run's own set-up.  Spreading
#: them over the run samples more than one stretch of the host's speed.
SETUP_CHILDREN = 3

#: Percentiles op_ms.tail may report: the highest with at least ten
#: samples beyond its nearest rank wins.
TAIL_PERCENTILES = (50, 60, 70, 75, 80, 90, 95, 98, 99, 99.5, 99.8, 99.9)

END_TO_END_UNITS = {
    "op_ref.p50": "ref",
    "solves_per_ref": "1/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "solver.loop_us": "us",
    "solver.self_us_per_loop": "us",
    "solver.overhead_share": "ratio",
    "solver.node_ns": "ns",
    "solver.fixed_us": "us",
    "solver.iterations": "count",
    "solver.evals": "count",
    "solver.f_calls_per_eval": "ratio",
    "solver.f_rejected": "count",
    "corpus.f_us": "us",
    "kernels.resolve_us": "us",
    "convergence.check_us": "us",
    "bench.runner_s": "s",
    "bench.self_ms": "ms",
    "bench.fit_ms": "ms",
    "bench.loops": "count",
    "bench.R": "ratio",
    "bench.n_min_integer": "sections",
    "bench.r_squared": "ratio",
    "bench.measured_ratio": "ratio",
    "model.report_us": "us",
    "lambert.w0_us": "us",
    "trace.overhead_ms": "ms",
    "trace.overhead_share": "ratio",
    **{f"square-8.N{n}.{k}": "us" for n in (2, 10, 250) for k in ("loop_us", "f_us")},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up seconds and exit")
    return parser.parse_args(argv)


class Run:
    """Ops attempted in one run, and what they measured."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0
        self.op_ns = {False: [], True: []}  # by traced
        self.tallies = {False: [], True: []}
        # untraced runs: each op's time over the reference kernel's
        self.ratios: list[float] = []
        self.reference_ns: list[int] = []

    def record(self, workload, reference, tracer=None):
        """Run, time and check one op."""
        self.attempted += 1
        root = tracer.begin("op") if tracer else None
        start = time.perf_counter_ns()
        try:
            outcome = workload.op(tracer)
        except Exception as exc:  # a failed op is counted; the run goes on
            if tracer:
                tracer.discard()
            self._fail([f"{type(exc).__name__}: {exc}"])
            return None
        elapsed = time.perf_counter_ns() - start
        if tracer:
            tracer.end(root)
            tracer.fold()
        errors, tally = workload.check(outcome)
        if not errors and reference is not None and tally.exact != reference.exact:
            errors = ["the op did different work from the warm-up pass"]
        if errors:
            self._fail(errors)
            return None
        traced = tracer is not None
        self.op_ns[traced].append(elapsed)
        self.tallies[traced].append(tally)
        return tally

    def _fail(self, errors):
        self.failed += 1
        self.errors.extend(errors)


def set_up(name: str, seed: int):
    """Import the package, build the inputs and run one checked warm-up
    pass; return the seconds that took, the workload and the warm-up's
    tally.  Exits with code 2 when the checkout has no package source."""
    start = time.perf_counter()
    if not (SRC / "multisection" / "__init__.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import multisection
    from perfbench import workloads

    if Path(multisection.__file__).resolve().parent != SRC / "multisection":
        print(f"imported multisection from {multisection.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    workload = workloads.build(name, seed)
    warm = Run()
    reference = warm.record(workload, None)
    return time.perf_counter() - start, workload, reference, warm


def setup_in_child(name: str, seed: int) -> float:
    """Set-up seconds of a fresh interpreter, which imports from cold."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def percentile(ordered, q):
    """Nearest-rank percentile q of an ascending list."""
    return ordered[max(math.ceil(q / 100 * len(ordered)), 1) - 1]


def tail(values):
    """(percentile, value): the highest of TAIL_PERCENTILES with at least
    ten samples beyond its nearest rank, else the median."""
    ordered = sorted(values)
    n = len(ordered)
    found = (50, statistics.median(ordered))
    for q in TAIL_PERCENTILES:
        if n - math.ceil(q / 100 * n) >= 10:
            found = (q, percentile(ordered, q))
    return found


def slope(points):
    """Least-squares slope of y on x."""
    xs, ys = zip(*points)
    x_bar, y_bar = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - x_bar) * (y - y_bar) for x, y in points)
            / sum((x - x_bar) ** 2 for x in xs))


def host_record() -> dict:
    """Host descriptor (the fields the CLI's manifest records), core
    counts, versions and the backends, so numbers from hosts that differ
    in any of them are not compared."""
    import numpy
    from multisection import available_backends, resolve_backend

    desc = platform.platform()
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.lower().startswith("model name")), None)
    except OSError:
        model = None
    model = model or platform.processor()
    return {
        "host": f"{desc}; {model}" if model else desc,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": resolve_backend(None),
        "available_backends": list(available_backends()),
    }


def end_to_end(run: Run, setups: list[float]) -> tuple[dict, dict]:
    """The gated metrics, and the figures printed beside them: wall-clock
    times, and tails, which on a shared host swing with how many of the
    host's stalls a run happens to catch."""
    op_ms = [ns / 1e6 for ns in run.op_ns[False]]
    q, tail_ms = tail(op_ms)
    _, tail_ref = tail(run.ratios)
    solves = sum(t.solves for t in run.tallies[False])
    metrics = {
        "op_ref.p50": statistics.median(run.ratios),
        "solves_per_ref": solves / sum(run.ratios),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    ungated = {
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "op_ms.tail": (tail_ms, f"ms (p{q})"),
        "op_ref.p90": (percentile(sorted(run.ratios), 90), "ref"),
        "op_ref.tail": (tail_ref, f"ref (p{q})"),
        "solves_per_s": (solves / (sum(op_ms) / 1e3), "1/s"),
        "reference_ms.p50": (statistics.median(run.reference_ns) / 1e6, "ms"),
        "ops": (len(op_ms), f"measured; setup_s is the median of {len(setups)} set-ups"),
    }
    return metrics, ungated


def solver_layer(workload, tracer, tallies, reference) -> dict:
    """Per-layer figures of the solver and of f, from the traced ops."""
    iterations = Counter()
    for t in tallies:
        iterations.update(t.iterations)
    evals = sum(sum(t.evals.values()) for t in tallies)
    loops = sum(iterations.values())
    total = tracer.total_ns(workload.span)
    own = tracer.self_ns(workload.span)
    f_ns = tracer.total_ns("corpus.f")
    per_n = [(n, s.total_ns / iterations[n]) for n, s in sorted(tracer.by_n(workload.span).items())]
    counts = tracer.counts
    return {
        "solver.loop_us": total / loops / 1e3,
        "solver.self_us_per_loop": own / loops / 1e3,
        "solver.overhead_share": own / (own + f_ns),
        "solver.node_ns": slope(per_n),
        "solver.iterations": reference.exact[0],
        "solver.evals": reference.exact[1],
        "solver.f_calls_per_eval": (counts["f.points"] + counts["f.rejected"]) / evals,
        "solver.f_rejected": counts["f.rejected"] / len(tallies),
        "corpus.f_us": f_ns / tracer.span_count("corpus.f") / 1e3,
    }


def bench_layer(tracer, results, reference) -> dict:
    """Per-layer figures of bench from traced calibrations, and the
    calibrated model (median over ``results``), which is informational."""
    ops = tracer.span_count("bench.calibrate")
    return {
        "bench.runner_s": tracer.total_ns("bench.runner") / ops / 1e9,
        "bench.self_ms": tracer.self_ns("bench.calibrate") / ops / 1e6,
        "bench.loops": reference.exact[0],
        "bench.R": statistics.median(r.report.R for r in results),
        "bench.n_min_integer": statistics.median(r.report.n_min_integer for r in results),
        "bench.r_squared": statistics.median(r.fit.r_squared for r in results),
        "bench.measured_ratio": statistics.median(r.measured_ratio for r in results),
    }


def per_layer(workload, run: Run, tracer, reference) -> tuple[dict, dict]:
    """Every per-layer metric, and the spans to write out."""
    from perfbench import probes, workloads
    from perfbench.tracing import Tracer

    metrics = solver_layer(workload, tracer, run.tallies[True], reference)
    untraced = statistics.median(run.op_ns[False]) / 1e6
    traced = statistics.median(run.op_ns[True]) / 1e6
    metrics["trace.overhead_ms"] = traced - untraced
    metrics["trace.overhead_share"] = (traced - untraced) / untraced

    dumps = {"workload": tracer.dump()}
    if isinstance(workload, workloads.CalibrateWorkload):
        cal_tracer, cal_results, cal_reference = tracer, workload.results, reference
    else:
        # the workload does not calibrate: calibrate once untraced, for
        # the model, and once traced, for the spans
        probe = workloads.CalibrateWorkload()
        cal_tracer = Tracer()
        probe.attach(cal_tracer)
        probe_run = Run()
        cal_reference = probe_run.record(probe, None)
        if cal_reference is not None:
            probe_run.record(probe, cal_reference, cal_tracer)
        run.attempted += probe_run.attempted
        run.failed += probe_run.failed
        run.errors.extend(probe_run.errors)
        if probe_run.failed:
            return metrics, dumps
        cal_results = probe.results
        dumps["calibrate_probe"] = cal_tracer.dump()
    metrics.update(bench_layer(cal_tracer, cal_results, cal_reference))
    metrics.update(probes.layer_probes(cal_results[-1].samples))
    return metrics, dumps


def print_metrics(metrics: dict, units: dict) -> None:
    for name, unit in units.items():
        print(f"  {name:<26} {metrics[name]:>14.6g} {unit}")


def result_line(run: Run, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    })


def run_one(args) -> int:
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    setup_s, workload, reference, warm = set_up(args.workload, args.seed)
    if args.setup_only:
        # the run that asked for this checks the warm-up's results itself
        print(setup_s)
        return 0
    if reference is None:
        # the warm-up pass failed: report it, and measure nothing
        print(result_line(warm, {}, {}))
        for error in warm.errors[:10]:
            print(f"failed: {error}", file=sys.stderr)
        return 0
    run = Run()

    from perfbench.reference import reference_ns
    from perfbench.tracing import Tracer

    tracer = None
    setups = [setup_s]
    if args.trace:
        tracer = Tracer()
        workload.attach(tracer)
    else:
        setups += [setup_in_child(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]

    deadline = time.perf_counter() + args.seconds
    ops = 0
    before = reference_ns(workload.reference)
    while True:
        if args.trace:
            # every other op is traced, so both medians see the same
            # stretch of the run
            run.record(workload, reference, tracer if ops % 2 else None)
        else:
            tally = run.record(workload, reference)
            after = reference_ns(workload.reference)
            if tally is not None:
                run.ratios.append(run.op_ns[False][-1] / ((before + after) / 2))
            run.reference_ns.append(after)
            before = after
        ops += 1
        if time.perf_counter() >= deadline and ops >= 2:
            break
    if not args.trace:
        setups += [setup_in_child(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    print("host " + json.dumps(host_record()))
    metrics = {}
    measured = run.op_ns[False] and run.op_ns[args.trace == 1]
    if measured and args.trace:
        metrics, dumps = per_layer(workload, run, tracer, reference)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(dumps) + "\n")
        print(f"spans written to {path.relative_to(ROOT)}")
    elif measured:
        metrics, ungated = end_to_end(run, setups)
        print("  not gated:")
        for name, (value, unit) in ungated.items():
            print(f"    {name:<24} {value:>14.6g} {unit}")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    units = {k: u for k, u in units.items() if k in metrics}
    print_metrics(metrics, units)
    print(f"  {'error_rate':<26} {run.failed / run.attempted:>14.6g} failed/attempted "
          f"({run.failed} of {run.attempted})")
    for error in run.errors[:10]:
        print(f"failed: {error}", file=sys.stderr)
    print(result_line(run, metrics, units))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
