"""Outside-in layer tracing: spans around calls into the program's layers.

The benchmark never edits the program.  To see where a front-door call
spends its time, it replaces a layer's public function or method *where
the caller looks the name up* -- a module global, a class attribute or a
registry dict entry -- with a wrapper that records a span, and puts the
original object back afterwards.

Spans stay in memory as rows of (name, start, end, parent, counts) and are
written once, at the end of a run.  A span's *self time* is its duration
minus the durations of its direct children; calls on one thread nest
properly, so the children never overlap each other or leave their parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    """One timed call; ``parent`` indexes the span list, -1 for a root."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store with an open-span stack (single thread)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self._clock(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, counts: dict | None = None) -> None:
        span = self.spans[idx]
        span.end = self._clock()
        if counts:
            span.counts.update(counts)
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(
                f"span {span.name!r} closed while {self.spans[top].name!r} "
                "was still open")


def write_spans(path, spans: list[Span]) -> None:
    """Dump spans as one JSON object per line."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({
                "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "counts": s.counts,
            }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


@dataclass(frozen=True)
class Probe:
    """One wrapper to install.

    ``target`` is ``"module:attr"``, ``"module:Class.method"`` or
    ``"module:DICT[key]"``.  ``count(args, result)`` returns counters kept
    on the span; ``steps`` wraps a generator function so that every
    ``next()`` is its own span.
    """

    target: str
    span: str
    count: Callable | None = None
    steps: bool = False


def _wrap_call(fn, probe: Probe, rec: Recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(probe.span)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx)
            raise
        rec.close(idx, probe.count(args, out) if probe.count else None)
        return out
    return traced


def _wrap_steps(fn, probe: Probe, rec: Recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(probe.span)
        try:
            it = iter(fn(*args, **kwargs))
        finally:
            rec.close(idx)
        while True:
            idx = rec.open(probe.span)
            try:
                item = next(it)
            except StopIteration:
                rec.close(idx)
                return
            except BaseException:
                rec.close(idx)
                raise
            rec.close(idx)
            yield item
    return traced


def _install(probe: Probe, rec: Recorder) -> Callable[[], None]:
    """Put the wrapper in place; return the function that takes it out."""
    module_name, path = probe.target.split(":")
    owner = importlib.import_module(module_name)
    wrap = _wrap_steps if probe.steps else _wrap_call
    if path.endswith("]"):
        attr, key = path[:-1].split("[")
        table = getattr(owner, attr)
        original = table[key]
        table[key] = wrap(original, probe, rec)

        def undo():
            table[key] = original
        return undo
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    if classes:
        # Class attribute: the method may be inherited, in which case the
        # wrapper shadows it on this class only and is deleted on undo.
        had_own = attr in owner.__dict__
        raw = owner.__dict__.get(attr)
        if isinstance(raw, (staticmethod, classmethod, property)):
            raise TypeError(f"{probe.target}: only plain methods are traced")
        setattr(owner, attr, wrap(getattr(owner, attr), probe, rec))

        def undo():
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        return undo
    original = getattr(owner, attr)
    setattr(owner, attr, wrap(original, probe, rec))

    def undo():
        setattr(owner, attr, original)
    return undo


@contextlib.contextmanager
def installed(probes, rec: Recorder):
    """Install every probe for the duration of the block, then restore."""
    undo = []
    try:
        for probe in probes:
            undo.append(_install(probe, rec))
        yield rec
    finally:
        for fn in reversed(undo):
            fn()
