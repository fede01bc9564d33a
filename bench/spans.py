"""In-memory spans recorded around library calls, and their self times.

A span is (name, start, end, parent).  Spans are opened by wrappers that the
benchmark installs from the outside, over the public functions and methods
at each layer boundary of the library (see layers.py); the library itself
is not edited.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 for a root
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in call order; a span's parent is the innermost open span."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = Span(name=name, start=self._clock(), end=float("nan"), parent=parent)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """fn inside a span; count(span.counts, args, result, exc) runs after the span ends."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result, exc = None, None
            with self.span(name) as span:
                try:
                    result = fn(*args, **kwargs)
                except Exception as e:
                    exc = e
            if count is not None:
                count(span.counts, args, result, exc)
            if exc is not None:
                raise exc
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover.

    Children are clipped to the parent and overlapping children are merged, so
    the result is right for nested, back-to-back and concurrent children alike.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def _rebind_everywhere(package: str, old, new) -> list:
    """Point every module global of `package` that holds `old` at `new`.

    Functions are re-exported and imported by name across modules, so each
    binding has to be replaced for every caller to go through the wrapper.
    """
    targets = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                targets.append((module, attr, old))
    for module, attr, _ in targets:
        setattr(module, attr, new)
    return targets


@contextlib.contextmanager
def instrument(tracer: Tracer, boundaries, package: str = "sosrep"):
    """Wrap each boundary in a span for the duration of the block, then restore.

    A boundary is (span name, module, attribute, counter); the attribute is a
    module-level function name or "Class.method".
    """
    undo = []
    try:
        for span_name, module, attr, count in boundaries:
            mod = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                old = cls.__dict__[meth]
                setattr(cls, meth, tracer.wrap(span_name, old, count))
                undo.append((cls, meth, old))
            else:
                old = getattr(mod, attr)
                undo += _rebind_everywhere(package, old, tracer.wrap(span_name, old, count))
        yield tracer
    finally:
        for obj, attr, old in reversed(undo):
            setattr(obj, attr, old)
