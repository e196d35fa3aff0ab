"""The timing protocol under a hostile clock: ``measured_ratio`` must
survive a stalled block and a step in the host's speed, and with the
exact clock it must be the exact ratio of the two solve times."""

import math
import random
from fractions import Fraction

import pytest

from multisection import (
    SweepConfig,
    SyntheticRunner,
    calibrate,
    corpus,
    predicted_max_iterations,
)

MU = 2.0 ** -52
M, C = 2e-9, 5e-7
PROBLEM = corpus()[3]
CONFIG = SweepConfig(problem=PROBLEM, n_values=(2, 40, 80), min_loops=100,
                     warmup_loops=0)


class HostileRunner(SyntheticRunner):
    """The exact clock ``t = m*N + c`` per loop, with faults on the full
    solves that ``timed_solves`` runs; the sweep's loops stay exact, so
    every calibration fits the same line.  A fault sits at a place in
    the host's timeline, the running count of those solves, not at a
    place in any one protocol's sequence of calls:

    * the block that runs solve number ``stall_at`` takes ``stall``
      times as long;
    * every solve from number ``step_at`` on takes ``step`` times as long.
    """

    def __init__(self, m, c, *, stall_at=None, stall=10.0, step_at=None,
                 step=2.0):
        super().__init__(m, c)
        self.stall_at = stall_at
        self.stall = stall
        self.step_at = step_at
        self.step = step
        self.solves = 0
        self.blocks = []

    def timed_solves(self, problem, options, count):
        self.blocks.append(count)
        per_solve = super().timed_solves(problem, options, 1)
        first, self.solves = self.solves, self.solves + count
        slow = 0
        if self.step_at is not None:
            slow = max(0, self.solves - max(first, self.step_at))
        elapsed = per_solve * (count + (self.step - 1.0) * slow)
        if self.stall_at is not None and first <= self.stall_at < self.solves:
            elapsed *= self.stall
        return elapsed


def measured_ratio(runner):
    return calibrate(PROBLEM, CONFIG, runner).measured_ratio


def batch_solves(n):
    """The solves each of the ten batches runs at N: a thousand loops'
    worth, at least one a batch, split as evenly as they go."""
    total = max(10, -(-1000 // predicted_max_iterations(PROBLEM.bracket, MU, n)))
    return [total // 10 + (b < total % 10) for b in range(10)]


@pytest.fixture(scope="module")
def fault_free():
    runner = HostileRunner(M, C)
    result = calibrate(PROBLEM, CONFIG, runner)
    return result.measured_ratio, result.report.n_min_integer, runner.blocks


class TestHostileClock:
    @pytest.mark.parametrize("seed", range(6))
    def test_one_stalled_block(self, fault_free, seed):
        expected, _, blocks = fault_free
        stall_at = random.Random(seed).randrange(sum(blocks))
        ratio = measured_ratio(HostileRunner(M, C, stall_at=stall_at))
        assert abs(ratio - expected) <= 0.05 * expected

    @pytest.mark.parametrize("round_index", range(1, 10))
    def test_speed_step_between_rounds(self, fault_free, round_index):
        expected, n_min, _ = fault_free
        per_round = [a + b for a, b in zip(batch_solves(2), batch_solves(n_min))]
        runner = HostileRunner(M, C, step_at=sum(per_round[:round_index]))
        ratio = measured_ratio(runner)
        assert abs(ratio - expected) <= 0.05 * expected

    def test_step_within_the_first_round_is_not_survived(self, fault_free):
        # the first fault pattern the protocol does not survive: a step
        # right after round 0's first batch leaves that N one fast batch
        # and the other N none, and each mean keeps five of its ten
        expected, _, blocks = fault_free
        runner = HostileRunner(M, C, step_at=blocks[0])
        assert abs(measured_ratio(runner) - expected) > 0.05 * expected


class TestExactClock:
    @pytest.mark.parametrize("m,c", [(2e-9, 5e-7), (1e-9, 3e-8), (3e-9, 1e-5)])
    @pytest.mark.parametrize("problem", corpus(), ids=lambda p: p.id)
    def test_ratio_within_4_ulp_of_the_exact_one(self, problem, m, c):
        config = SweepConfig(problem=problem, n_values=(2, 40, 80),
                             min_loops=100, warmup_loops=0)
        result = calibrate(problem, config, SyntheticRunner(m, c))

        def solve_time(n):
            loops = predicted_max_iterations(problem.bracket, MU, n)
            return Fraction(loops) * Fraction(m * n + c)  # the runner's t

        exact = float(solve_time(result.report.n_min_integer) / solve_time(2))
        assert abs(result.measured_ratio - exact) <= 4 * math.ulp(exact)
