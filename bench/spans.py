"""In-memory spans around the benchmark's calls into each ``pdds`` layer.

A span is (name, start_ns, end_ns, parent index, op id).  The layer of a
span is its name up to the first dot; spans named ``extra.*`` wrap calls
that only the traced run makes (to split a layer's time), so they are left
out when the traced and untraced runs are compared.

Spans are kept in flat arrays rather than one object each: a list of
millions of small containers would make the garbage collector's full passes
slower and slower, which would show up as tracing overhead.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter_ns

_NULL = nullcontext()


class NullTracer:
    """The untraced run: every span is a shared no-op context."""

    enabled = False

    def span(self, name: str, op: int = -1):
        return _NULL


class _Span:
    __slots__ = ("tracer", "name", "op", "index")

    def __init__(self, tracer: "Tracer", name: str, op: int) -> None:
        self.tracer, self.name, self.op = tracer, name, op

    def __enter__(self) -> "_Span":
        tr = self.tracer
        self.index = len(tr.names)
        tr.names.append(self.name)
        tr.parents.append(tr.stack[-1] if tr.stack else -1)
        tr.ops.append(self.op)
        tr.ends.append(0)
        tr.stack.append(self.index)
        tr.starts.append(perf_counter_ns())
        return self

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        tr.ends[self.index] = perf_counter_ns()
        tr.stack.pop()


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.stack: list[int] = []

    def span(self, name: str, op: int = -1) -> _Span:
        return _Span(self, name, op)

    def mark(self) -> int:
        return len(self.names)

    def rows(self, lo: int, hi: int):
        """(name, start_ns, end_ns, parent, op) for span indices [lo, hi)."""
        return zip(self.names[lo:hi], self.starts[lo:hi], self.ends[lo:hi],
                   self.parents[lo:hi], self.ops[lo:hi])

    def totals(self, lo: int, hi: int) -> dict[str, float]:
        """Seconds spent in spans of each name, over span indices [lo, hi)."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.rows(lo, hi):
            out[name] += (end - start) / 1e9
        return out

    def counts(self, lo: int, hi: int) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name in self.names[lo:hi]:
            out[name] += 1
        return out

    def self_times(self, lo: int, hi: int) -> dict[str, float]:
        """Seconds per layer not covered by child spans, over [lo, hi).

        Spans are sequential (one client thread), so a span's children never
        overlap and their durations simply add up.
        """
        inner = [0] * (hi - lo)
        for _, start, end, parent, _ in self.rows(lo, hi):
            if parent >= lo:
                inner[parent - lo] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.rows(lo, hi), inner):
            out[name.split(".", 1)[0]] += (end - start - covered) / 1e9
        return out

    def top_level_s(self, lo: int, hi: int) -> float:
        """Seconds covered by spans in [lo, hi) that have no parent there."""
        return sum(end - start for _, start, end, parent, _ in self.rows(lo, hi)
                   if parent < lo) / 1e9

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": [list(r) for r in self.rows(0, self.mark())]},
                      fh, separators=(",", ":"))
