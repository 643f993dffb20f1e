"""Spans around the package's public entry points, recorded from outside.

A Tracer replaces named attributes (module functions or class methods)
with wrappers that record one span per call: name, start, end, parent
span and optional counts taken from the call's arguments and result.
The package itself is not modified; leaving the `with` block puts every
original back.  Spans stay in memory until the caller aggregates and
clears them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)


@dataclass
class Target:
    """One attribute to wrap: owner.attr becomes span `name`."""

    owner: object
    attr: str
    name: str
    counts: object = None  # callable (args, result) -> dict, or None


class Tracer:
    def __init__(self, targets: list[Target]):
        self._targets = targets
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.spans: list[Span] = []

    def __enter__(self) -> "Tracer":
        for tgt in self._targets:
            original = getattr(tgt.owner, tgt.attr)
            self._saved.append((tgt.owner, tgt.attr, original))
            setattr(tgt.owner, tgt.attr, self._wrap(original, tgt))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        self.spans.clear()

    def _wrap(self, fn, tgt: Target):
        spans = self.spans
        stack = self._stack
        counts = tgt.counts
        name = tgt.name

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else -1)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start
            if counts is not None:
                span.counts = counts(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s (inclusive), self_s and summed counts."""
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        t = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = span.end - span.start
        t["calls"] += 1
        t["total_s"] += dur
        t["self_s"] += dur - span.child_s
        for key, value in span.counts.items():
            t[key] = t.get(key, 0) + value
    return out


def root_coverage_s(spans: list[Span]) -> float:
    """Seconds covered by spans that have no traced parent."""
    return sum(s.end - s.start for s in spans if s.parent < 0)
