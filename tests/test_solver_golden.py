"""Bit-level solver contract: every result field and trace record as hex.

``tests/golden/solver_<id>.hex`` holds, for square-8 and inv-shift, each
solve over N in {2, 3, 5, 10, 12, 13, 50, 250, 1000} and four option
sets: the root, residual, counts and termination, then one line per
trace record.  A record's nodes are written out as ``x:f(x)`` pairs when
N <= 13 and as the SHA-256 of that same text above it.  Both functions
use only IEEE basic operations (``x*x - 8`` and ``1/(10 - x) - 1/4``),
which are correctly rounded everywhere, so the bits do not depend on the
host's libm.

Regenerate the files (only for a change that is meant to alter results)
with ``PYTHONPATH=src python tests/test_solver_golden.py``.
"""

import hashlib
from pathlib import Path

import pytest

from multisection import SolveOptions, corpus, solve

GOLDEN = Path(__file__).parent / "golden"

PROBLEMS = ("square-8", "inv-shift")
SECTIONS = (2, 3, 5, 10, 12, 13, 50, 250, 1000)
OPTIONS = {
    "default": {},
    "cap 0": dict(max_iterations=0),
    "cap 3": dict(max_iterations=3),
    "residual 1e-9": dict(residual_tolerance=1e-9),
}
#: Records with more nodes than this are written as a digest.
FULL_NODES_MAX = 12


def _hex(value) -> str:
    return "None" if value is None else float.hex(value)


def dump(problem_id: str) -> str:
    """The golden text for one corpus problem."""
    problem = next(p for p in corpus() if p.id == problem_id)
    lines = []
    for sections in SECTIONS:
        for name, kwargs in OPTIONS.items():
            r = solve(problem, SolveOptions(sections=sections, **kwargs))
            lines.append(
                f"{problem_id} N={sections} {name}: root={_hex(r.root)} "
                f"residual={_hex(r.residual)} iterations={r.iterations} "
                f"evaluations={r.function_evaluations} {r.termination.value}")
            for rec in r.trace:
                nodes = " ".join(f"{_hex(x)}:{_hex(fx)}" for x, fx in rec.evaluated_nodes)
                if len(rec.evaluated_nodes) > FULL_NODES_MAX:
                    nodes = "sha256=" + hashlib.sha256(nodes.encode()).hexdigest()
                before, chosen = rec.interval_before, rec.chosen_subinterval
                lines.append(
                    f"  {rec.index} [{_hex(before.lo)}, {_hex(before.hi)}] -> "
                    f"[{_hex(chosen.lo)}, {_hex(chosen.hi)}] "
                    f"exact={_hex(rec.exact_root)} {nodes}")
    return "\n".join(lines) + "\n"


def golden_path(problem_id: str) -> Path:
    return GOLDEN / f"solver_{problem_id}.hex"


@pytest.mark.parametrize("problem_id", PROBLEMS)
def test_results_match_the_golden_bits(problem_id):
    expected = golden_path(problem_id).read_text().splitlines()
    actual = dump(problem_id).splitlines()
    assert len(actual) == len(expected)
    for line, (got, want) in enumerate(zip(actual, expected), 1):
        assert got == want, f"{golden_path(problem_id).name}:{line}"


if __name__ == "__main__":
    for problem_id in PROBLEMS:
        golden_path(problem_id).write_text(dump(problem_id))
