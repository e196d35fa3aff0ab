"""A fixed reference kernel, timed next to every op.

On a shared host the speed of a core drifts: the median op time of one
workload moved between 10 and 18 ms from one few-second stretch to the
next, and CPU time moved with it, so the process was not descheduled but
ran on a slower core.  The gated end-to-end times are therefore each op's
wall time divided by the mean of the reference kernel's wall time just
before and just after it.

The kernel is a solver loop in miniature: nodes by the same arithmetic,
f over them, ``tolist``, a sign scan in Python and a tuple of pairs kept
for a trace.  How much a host slowdown costs depends on the node count:
small loops are bound by the interpreter, large ones also by allocation
and cache traffic.  So each workload times the kernel at a node count
like its own (``NARROW`` or ``WIDE``); with a small-node kernel,
solve-wide's ratio moved by 7% between stretches of one process, with a
large-node one by 2%.  The kernel is the benchmark's own code, so a change
to the package moves the ratio and not the kernel.
"""

from __future__ import annotations

import time

import numpy as np

#: (nodes, passes): the kernel's node count and how many passes it makes.
NARROW = (9, 60)
WIDE = (999, 6)


def _sign(value: float) -> int:
    if value > 0.0:
        return 1
    if value < 0.0:
        return -1
    return 0


def reference_kernel(nodes: int, passes: int) -> int:
    j = np.arange(1.0, nodes + 1.0)
    lo, hi = -5.0, -2.0
    trace = []
    for _ in range(passes):
        xs = lo + (j * (hi - lo)) / (nodes + 1)
        ys = (xs * xs - 8.0).tolist()
        previous = _sign(ys[0])
        for y in ys:
            if _sign(y) != previous:
                break
        trace.append(tuple(zip(xs.tolist(), ys)))
    return len(trace)


def reference_ns(shape: tuple[int, int]) -> int:
    """Wall time of one run of the kernel of that shape, in nanoseconds."""
    start = time.perf_counter_ns()
    reference_kernel(*shape)
    return time.perf_counter_ns() - start
