"""Span recording for the traced benchmark pass.

The package is instrumented from outside: for the length of a `Tracer`
context, public functions of the cqgkac modules are rebound to wrappers that
record a span (name, start, end, parent, request) in memory, and leaving the
context restores the originals.  Nothing under src/ knows about tracing.

Per-layer metrics are derived from the spans afterwards.  A span's self time
is its duration minus the part its child spans cover.  Work the tracer does
for itself (computing span attributes) runs in its own `tracing.attrs` span,
so it is excluded from every layer's time and shows only in the traced wall
time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field

BOOKKEEPING = "tracing.attrs"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans in memory while its patches are installed."""

    def __init__(self, targets, counters=()):
        """`targets`: (owner, attribute, span name, attrs function or None);
        the attrs function maps (args, kwargs, result) to a dict of counts.
        `counters`: (owner, attribute, key); each call adds 1 to `key` on the
        innermost open span, without a span of its own."""
        self.targets = tuple(targets)
        self.counters = tuple(counters)
        self.spans = []
        self.request = None
        self._open = []
        self._saved = []

    def __enter__(self):
        try:
            for owner, attr, name, attrs in self.targets:
                self._patch(owner, attr, self._spanned(name, getattr(owner, attr), attrs))
            for owner, attr, key in self.counters:
                self._patch(owner, attr, self._counted(key, getattr(owner, attr)))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def begin(self, name) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, parent, self.request, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span):
        span.end = time.perf_counter()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _spanned(self, name, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if attrs is not None:
                book = self.begin(BOOKKEEPING)
                try:
                    span.attrs.update(attrs(args, kwargs, result))
                finally:
                    self.end(book)
            return result

        return wrapper

    def _counted(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open:
                top = self._open[-1].attrs
                top[key] = top.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


class SpanTable:
    """Durations, self times, counts and attribute sums over recorded spans."""

    def __init__(self, spans):
        self.spans = list(spans)
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        book = defaultdict(float)
        for s in self.spans:
            if s.name == BOOKKEEPING:
                parent = s.parent
                while parent is not None:
                    book[parent] += s.end - s.start
                    parent = self.spans[parent].parent
        self.net = {s.id: s.end - s.start - book[s.id] for s in self.spans}
        self.self_time = {
            s.id: s.end - s.start - _coverage(s, children[s.id]) for s in self.spans
        }

    def _select(self, names, under=None):
        for s in self.spans:
            if s.name not in names:
                continue
            if under is not None and (s.parent is None or self.spans[s.parent].name != under):
                continue
            yield s

    def time(self, *names, under=None) -> float:
        """Summed duration of the named spans, tracer bookkeeping excluded;
        `under` keeps only spans whose parent has that name."""
        return sum((self.net[s.id] for s in self._select(names, under)), 0.0)

    def self_seconds(self, *names) -> float:
        return sum((self.self_time[s.id] for s in self._select(names)), 0.0)

    def count(self, *names) -> int:
        return sum(1 for _ in self._select(names))

    def attr(self, key, *names) -> int:
        return sum(s.attrs.get(key, 0) for s in self._select(names))


def _coverage(span, kids) -> float:
    """Length of the union of the children's intervals inside the span."""
    total = 0.0
    reach = span.start
    for kid in sorted(kids, key=lambda k: k.start):
        lo = max(kid.start, reach)
        hi = min(kid.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
