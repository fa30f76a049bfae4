"""In-memory span recording and the self-time arithmetic of the traced run.

A span is (name, start, end, parent). Spans are kept in parallel lists while
the run lasts and written out once at the end. A span's self time is its
duration minus the part of its interval that its child spans cover; every
per-layer time the benchmark reports is a sum of self times computed here.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Span stack plus named counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        totals: dict[str, float] = defaultdict(float)
        for name, value in zip(self.names,
                               self_times(self.starts, self.ends, self.parents)):
            totals[name] += value
        return dict(totals)

    def total_seconds(self, name: str) -> float:
        """Total inclusive time of the spans called ``name``."""
        return sum(end - start for n, start, end
                   in zip(self.names, self.starts, self.ends) if n == name)

    def write(self, path) -> None:
        """One tab-separated ``name start end parent`` line per span."""
        with open(path, "w", encoding="utf-8") as handle:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                handle.write("%s\t%.9f\t%.9f\t%d\n" % row)


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    each clipped to the parent's interval."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        run_start = run_end = None
        clipped = sorted((max(starts[c], start), min(ends[c], end))
                         for c in children.get(index, ()))
        for lo, hi in clipped:
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        result.append((end - start) - covered)
    return result


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples for the block, then restore."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
