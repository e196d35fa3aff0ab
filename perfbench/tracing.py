"""Spans recorded around calls into the package, kept in memory.

Spans are opened and closed only from the benchmark's own files: around
each call into a public function of a layer, and inside the timing
wrapper that the benchmark passes to the package as ``Problem.f``.  Each
span carries a name, start and end in nanoseconds, the span that caused
it, and a section count ``n`` (inherited from the parent when not given)
so per-N figures can be read back.  The spans of one op are folded into
per-``(name, n)`` totals when the op ends; a layer's self time is its
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict

#: Ops whose spans are kept in full for the trace file.
KEPT_OPS = 2


class Span:
    __slots__ = ("count", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Spans of the op in progress, plus totals of every op folded so far."""

    def __init__(self) -> None:
        self.totals: dict[tuple[str, int], Span] = defaultdict(Span)
        self.counts: dict[str, int] = defaultdict(int)
        self.kept: list[list[tuple]] = []
        self._reset()

    def _reset(self) -> None:
        self._names: list[str] = []
        self._ns: list[int] = []
        self._parents: list[int] = []
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._stack: list[int] = []

    def begin(self, name: str, n: int | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if n is None:
            n = self._ns[parent] if parent >= 0 else 0
        index = len(self._names)
        self._names.append(name)
        self._ns.append(n)
        self._parents.append(parent)
        self._ends.append(0)
        self._stack.append(index)
        self._starts.append(time.perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self._ends[index] = time.perf_counter_ns()
        self._stack.pop()

    def fold(self) -> None:
        """Add the finished op's spans to the totals and start afresh."""
        durations = [e - s for s, e in zip(self._starts, self._ends)]
        children = [0] * len(durations)
        for parent, duration in zip(self._parents, durations):
            if parent >= 0:
                children[parent] += duration
        for name, n, duration, child in zip(self._names, self._ns, durations, children):
            span = self.totals[(name, n)]
            span.count += 1
            span.total_ns += duration
            span.self_ns += duration - child
        if len(self.kept) < KEPT_OPS:
            self.kept.append(list(zip(
                self._names, self._ns, self._parents, self._starts, self._ends
            )))
        self._reset()

    def discard(self) -> None:
        """Drop the spans of an op that raised; its spans may be open."""
        self._reset()

    def total_ns(self, name: str) -> int:
        return sum(s.total_ns for (k, _), s in self.totals.items() if k == name)

    def self_ns(self, name: str) -> int:
        return sum(s.self_ns for (k, _), s in self.totals.items() if k == name)

    def span_count(self, name: str) -> int:
        return sum(s.count for (k, _), s in self.totals.items() if k == name)

    def by_n(self, name: str) -> dict[int, Span]:
        return {n: s for (k, n), s in self.totals.items() if k == name}

    def dump(self) -> dict:
        """Totals and kept spans, in a form ``json.dump`` accepts."""
        return {
            "fields": ["name", "n", "parent", "start_ns", "end_ns"],
            "kept_ops": self.kept,
            "totals": [
                {"name": name, "n": n, "count": s.count,
                 "total_ns": s.total_ns, "self_ns": s.self_ns}
                for (name, n), s in sorted(self.totals.items())
            ],
            "counts": dict(self.counts),
        }


def traced_f(f, tracer: Tracer):
    """Wrap f in a ``corpus.f`` span that also counts the points f was
    asked for and the calls it rejected with TypeError."""
    counts = tracer.counts

    def f_traced(x):
        index = tracer.begin("corpus.f")
        try:
            y = f(x)
        except TypeError:
            counts["f.rejected"] += 1
            raise
        finally:
            tracer.end(index)
        counts["f.points"] += getattr(x, "size", 1)
        return y

    return f_traced
