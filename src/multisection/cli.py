"""Command-line front end: reproducible experiments, plot-ready exports.

Four subcommands tie the library together:

* ``solve``      — run one N-section solve and print/JSON the result.
* ``calibrate``  — sweep loop times over N, fit t = m*N + c, write the
                   sweep CSV + report JSON + manifest, print a summary row.
* ``predict``    — evaluate the model for a given R (or m and c): N_min,
                   RelEff, optionally the full T_t curve as CSV.
* ``appendix``   — error-bound and underflow diagnostics: first index
                   with B_i below eps, halvings-to-zero under both
                   underflow conventions, corpus bound verification.

Exit codes are a stable contract: 0 success, 2 bracket failure, 3 bad
arguments, 4 unusable fit, 5 bound violation.

Every file-producing run writes a manifest JSON next to its outputs
recording the command, configuration, timestamp, and a host descriptor —
timing numbers are meaningless without knowing the machine they came
from.  The ``predict`` report itself contains no timestamp, so its JSON
is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import logging
import platform
import re
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from .bench import (
    SweepConfig,
    SyntheticRunner,
    WallClockRunner,
    calibrate,
    write_sweep_csv,
)
from .convergence import (
    REFERENCE_FLUSH_TO_ZERO_Z,
    BoundSequence,
    first_index_below,
    underflow_exponent,
    verify_error_bounds,
)
from .corpus import BUILTIN_NAMES, builtin_functions, corpus
from .errors import (
    BoundViolation,
    BracketError,
    DomainError,
    FitError,
    MultisectionError,
)
from .kernels import VALID_BACKENDS
from .model import DEFAULT_N_VALUES, CostModel, ProblemScale, efficiency_report
from .solver import MACHINE_WIDTH, Interval, Problem, SolveOptions, solve

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BRACKET = 2
EXIT_ARGUMENTS = 3
EXIT_FIT = 4
EXIT_BOUND = 5


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written beside every file-producing run."""

    command: str
    config: dict
    timestamp: str
    host: str
    outputs: list[str]


def _host_descriptor() -> str:
    desc = platform.platform()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return f"{desc}; {line.split(':', 1)[1].strip()}"
    except OSError:
        pass
    processor = platform.processor()
    return f"{desc}; {processor}" if processor else desc


def _write_manifest(path: Path, command: str, config: dict, outputs: list[Path]) -> None:
    manifest = RunManifest(
        command=command,
        config=config,
        timestamp=datetime.now(timezone.utc).isoformat(),
        host=_host_descriptor(),
        outputs=[str(p) for p in outputs],
    )
    path.write_text(json.dumps(asdict(manifest), indent=2) + "\n")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad arguments; our contract says 3.

    It also takes a negative number with an exponent (``--lo -5e0``) as a
    value, where argparse before Python 3.13 only knows ``-5`` and
    ``-5.0`` and reads ``-5e0`` as an unknown option.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ARGUMENTS)


def _add_selector(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--corpus", type=int, metavar="INDEX",
        help="benchmark problem number, 1-based",
    )
    parser.add_argument(
        "--function", metavar="NAME", choices=BUILTIN_NAMES,
        help=f"builtin function name, one of: {', '.join(BUILTIN_NAMES)}",
    )
    parser.add_argument("--lo", type=float, help="bracket lower endpoint")
    parser.add_argument("--hi", type=float, help="bracket upper endpoint")


def _resolve_problem(args: argparse.Namespace) -> Problem:
    if args.corpus is not None:
        problems = corpus()
        if not 1 <= args.corpus <= len(problems):
            raise DomainError(
                f"--corpus index must be in 1..{len(problems)}, got {args.corpus}"
            )
        return problems[args.corpus - 1]
    if args.function is not None:
        if args.lo is None or args.hi is None:
            raise DomainError("--function requires --lo and --hi")
        return Problem(
            id=args.function,
            f=builtin_functions()[args.function],
            bracket=Interval(args.lo, args.hi),
        )
    raise DomainError(
        "select a problem: --corpus INDEX, or --function NAME --lo A --hi B"
    )


def _parse_n_values(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise DomainError(f"--n-values expects comma-separated integers: {exc}")
    if not values:
        raise DomainError("--n-values is empty")
    return values


def _parse_synthetic(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError("--synthetic expects M,C (two comma-separated seconds values)")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise DomainError(f"--synthetic expects numbers: {exc}")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="multisection",
        description="N-section root finding with a calibrated optimal-N model",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solve")
    _add_selector(p_solve)
    p_solve.add_argument("--sections", type=int, default=SolveOptions.sections, metavar="N")
    p_solve.add_argument("--width-tolerance", type=float,
                         default=SolveOptions.width_tolerance)
    p_solve.add_argument("--residual-tolerance", type=float,
                         default=SolveOptions.residual_tolerance)
    p_solve.add_argument("--max-iterations", type=int, default=None)
    p_solve.add_argument("--backend", choices=VALID_BACKENDS, default=None)
    p_solve.add_argument("--json", action="store_true")

    p_cal = sub.add_parser("calibrate", help="sweep, fit, and report")
    _add_selector(p_cal)
    p_cal.add_argument("--n-values", type=_parse_n_values,
                       default=DEFAULT_N_VALUES, metavar="N1,N2,...")
    p_cal.add_argument("--min-loops", type=int, default=SweepConfig.min_loops)
    p_cal.add_argument("--warmup-loops", type=int, default=SweepConfig.warmup_loops)
    p_cal.add_argument("--out", required=True, metavar="DIR",
                       help="output directory for sweep.csv, report.json, manifest.json")
    p_cal.add_argument("--synthetic", type=_parse_synthetic, default=None,
                       metavar="M,C", help="use a fake clock with loop time M*N+C")
    p_cal.add_argument("--backend", choices=VALID_BACKENDS, default=None)

    p_pred = sub.add_parser("predict", help="evaluate the optimal-N model")
    p_pred.add_argument("--ratio", type=float, default=None, metavar="R",
                        help="overhead ratio R = c/m")
    p_pred.add_argument("--m", type=float, default=None, help="seconds per section per loop")
    p_pred.add_argument("--c", type=float, default=None, help="seconds per loop overhead")
    p_pred.add_argument("--width", type=float, default=1.0)
    p_pred.add_argument("--mu", type=float, default=ProblemScale.mu)
    p_pred.add_argument("--curve", metavar="PATH", default=None,
                        help="write the (N, T_t) curve as CSV to PATH")
    p_pred.add_argument("--n-max", type=int, default=DEFAULT_N_VALUES[-1])
    p_pred.add_argument("--json", action="store_true")

    p_app = sub.add_parser("appendix", help="bound and underflow diagnostics")
    p_app.add_argument("--width", type=float, required=True)
    p_app.add_argument("--sections", type=int, default=SolveOptions.sections, metavar="N")
    p_app.add_argument("--eps", type=float, default=MACHINE_WIDTH)
    p_app.add_argument("--backend", choices=VALID_BACKENDS, default=None)

    return parser


def cmd_solve(args: argparse.Namespace) -> int:
    problem = _resolve_problem(args)
    options = SolveOptions(
        sections=args.sections,
        width_tolerance=args.width_tolerance,
        residual_tolerance=args.residual_tolerance,
        max_iterations=args.max_iterations,
    )
    result = solve(problem, options, backend=args.backend)
    if args.json:
        print(json.dumps({
            "problem": problem.id,
            "bracket": [problem.bracket.lo, problem.bracket.hi],
            "sections": options.sections,
            "root": result.root,
            "residual": result.residual,
            "iterations": result.iterations,
            "function_evaluations": result.function_evaluations,
            "termination": result.termination.value,
        }, indent=2))
    else:
        print(f"problem: {problem.id} on [{problem.bracket.lo!r}, {problem.bracket.hi!r}]")
        print(f"sections: {options.sections}")
        print(f"root = {result.root!r}")
        print(f"residual = {result.residual!r}")
        print(f"iterations = {result.iterations}")
        print(f"evaluations = {result.function_evaluations}")
        print(f"termination = {result.termination.value}")
    return EXIT_OK


def cmd_calibrate(args: argparse.Namespace) -> int:
    problem = _resolve_problem(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    report_path = out_dir / "report.json"
    manifest_path = out_dir / "manifest.json"

    if args.synthetic is not None:
        runner = SyntheticRunner(*args.synthetic)
    else:
        runner = WallClockRunner(backend=args.backend)

    config = SweepConfig(
        problem=problem,
        n_values=args.n_values,
        min_loops=args.min_loops,
        warmup_loops=args.warmup_loops,
    )
    config_echo = {
        "problem": problem.id,
        "bracket": [problem.bracket.lo, problem.bracket.hi],
        "n_values": list(config.n_values),
        "min_loops": config.min_loops,
        "warmup_loops": config.warmup_loops,
        "synthetic": list(args.synthetic) if args.synthetic else None,
        "backend": args.backend,
    }

    try:
        result = calibrate(problem, config, runner)
    except FitError as exc:
        write_sweep_csv(exc.samples, csv_path)  # the sweep outlives the fit
        _write_manifest(manifest_path, "calibrate", config_echo, [csv_path])
        print(f"multisection calibrate: unusable fit: {exc}", file=sys.stderr)
        print(f"sweep data kept at {csv_path}", file=sys.stderr)
        return EXIT_FIT

    write_sweep_csv(result.samples, csv_path)
    report, fit = result.report, result.fit
    report_path.write_text(json.dumps({
        "m": fit.m,
        "c": fit.c,
        "R": report.R,
        "n_min_real": report.n_min_real,
        "n_min_integer": report.n_min_integer,
        "rel_eff": report.rel_eff,
        "rel_eff_integer": report.rel_eff_integer,
        "r_squared": fit.r_squared,
        "measured_ratio": result.measured_ratio,
    }, indent=2) + "\n")
    _write_manifest(manifest_path, "calibrate", config_echo, [csv_path, report_path])

    low_confidence = " (low-confidence: 2-point fit, r²=1 by construction)" \
        if len(result.samples) < 3 else ""
    print(
        f"{problem.id}  [{problem.bracket.lo:g}, {problem.bracket.hi:g}]  "
        f"R={report.R:.3e}  N_min={report.n_min_integer}  "
        f"r²={fit.r_squared:.3f}  RelEff={report.rel_eff:.3f}  "
        f"measured_ratio={result.measured_ratio:.3f}{low_confidence}"
    )
    print(f"wrote {csv_path}, {report_path}, {manifest_path}")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    if args.ratio is None and (args.m is None or args.c is None):
        raise DomainError("provide --ratio R, or both --m and --c")
    if args.ratio is not None and (args.m is not None or args.c is not None):
        raise DomainError("--ratio and --m/--c are mutually exclusive")

    if args.ratio is not None:
        cost = CostModel(m=1.0, c=args.ratio)  # only the ratio matters
    else:
        cost = CostModel(m=args.m, c=args.c)
    scale = ProblemScale(width=args.width, mu=args.mu)
    # only --curve writes the curve; it checks --n-max after the summary
    n_top = max(args.n_max, 2) if args.curve is not None else 2
    report = efficiency_report(cost, scale, n_range=range(2, n_top + 1))

    payload = {
        "R": report.R,
        "n_min_real": report.n_min_real,
        "n_min_integer": report.n_min_integer,
        "rel_eff": report.rel_eff,
        "t_t_at_2": report.t_t_at_2,
        "t_t_at_min": report.t_t_at_min,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"R = {report.R!r}")
        print(f"n_min_real = {report.n_min_real!r}")
        print(f"n_min_integer = {report.n_min_integer}")
        print(f"rel_eff = {report.rel_eff!r}")

    if args.curve is not None:
        if args.n_max < 2:
            raise DomainError(f"--n-max must be >= 2, got {args.n_max}")
        curve_path = Path(args.curve)
        with open(curve_path, "w") as handle:
            handle.write("N,t_t_seconds\n")
            for n, t_t in report.curve:
                handle.write(f"{n},{t_t!r}\n")
        manifest_path = curve_path.with_name(curve_path.name + ".manifest.json")
        _write_manifest(
            manifest_path, "predict",
            {"R": report.R, "m": cost.m, "c": cost.c,
             "width": scale.width, "mu": scale.mu, "n_max": args.n_max},
            [curve_path],
        )
        print(f"wrote {curve_path}, {manifest_path}")
    return EXIT_OK


def cmd_appendix(args: argparse.Namespace) -> int:
    seq = BoundSequence(initial_width=args.width, base=args.sections)
    index = first_index_below(seq, args.eps)
    z_subnormal = underflow_exponent(args.width)
    z_flush = underflow_exponent(args.width, flush_subnormals=True)

    print(f"width = {args.width!r}, sections = {args.sections}")
    print(f"first_index_below(eps={args.eps!r}) = {index}")
    print(f"underflow_exponent (subnormal) = {z_subnormal}")
    print(f"underflow_exponent (flush-to-zero) = {z_flush}")
    print(
        f"reference platform comparison: z = {REFERENCE_FLUSH_TO_ZERO_Z} "
        "(reported elsewhere; platform-dependent, not asserted)"
    )

    print(f"corpus bound verification at N={args.sections}:")
    for problem in corpus():
        report = verify_error_bounds(
            problem, args.sections, backend=args.backend
        )
        print(
            f"  {problem.id}: PASS "
            f"({report.iterations} iterations, min margin {report.min_margin:.3e})"
        )
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )

    handlers = {
        "solve": cmd_solve,
        "calibrate": cmd_calibrate,
        "predict": cmd_predict,
        "appendix": cmd_appendix,
    }
    try:
        return handlers[args.command](args)
    except BracketError as exc:
        print(f"multisection: bracket error: {exc}", file=sys.stderr)
        return EXIT_BRACKET
    except DomainError as exc:
        print(f"multisection: error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENTS
    except FitError as exc:
        print(f"multisection: unusable fit: {exc}", file=sys.stderr)
        return EXIT_FIT
    except BoundViolation as exc:
        print(f"multisection: bound violation: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except MultisectionError as exc:
        print(f"multisection: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
