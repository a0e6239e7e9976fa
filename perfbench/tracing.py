"""In-memory spans and counters, recorded from outside the program.

A span is (name, parent, start, end, counts).  Spans are opened around
calls into the program's public functions, either at the call site in
the benchmark's own pipeline or by temporarily replacing a module
attribute with a timing wrapper (for calls the program makes internally,
such as ``picard_solve`` -> ``apply_A``).  Evaluations of f and a are
counted by a thin callable around the parsed expression; each count lands
on the innermost open span and is rolled up to its ancestors at the end.
Nothing is written until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(float))


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = Span(name, parent, time.perf_counter())
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        if self._stack:
            self.spans[self._stack[-1]].counts[key] += amount

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, targets):
        """Replace (module, attribute, span name) targets by timing wrappers."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        try:
            for (module, attr, name), (_, _, original) in zip(targets, saved):
                setattr(module, attr, self.wrap(name, original))
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def summary(self, roots: int) -> dict[str, float]:
        """Per-root averages: `<span>.self_s`, `.calls`, `.total_s` and every
        count key, counts inclusive of descendants."""
        inclusive = [defaultdict(float, s.counts) for s in self.spans]
        child_time = [0.0] * len(self.spans)
        for index in range(len(self.spans) - 1, -1, -1):
            span = self.spans[index]
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
                for key, value in inclusive[index].items():
                    inclusive[span.parent][key] += value
        out: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            duration = span.end - span.start
            out[f"{span.name}.self_s"] += duration - child_time[index]
            out[f"{span.name}.total_s"] += duration
            out[f"{span.name}.calls"] += 1
            for key, value in inclusive[index].items():
                out[f"{span.name}.{key}"] += value
        return {key: value / max(roots, 1) for key, value in out.items()}


class CountingFn:
    """Callable that counts evaluations of a wrapped f or a on a tracer."""

    def __init__(self, fn, key: str, tracer: Tracer):
        self._fn = fn
        self._key = key
        self._tracer = tracer

    def __call__(self, x):
        self._tracer.count(self._key)
        return self._fn(x)
