"""In-memory spans around calls into the library, and their self-time arithmetic.

A span records a name, a start, an end and the span that was open when it
began (its parent).  Spans are kept in a list while a traced batch runs and
are only analysed or written out afterwards, so recording costs two clock
reads and one append per call.

Self time is a span's duration minus the part of its interval that its
children cover.  Children are clipped to the parent's interval and their
union is subtracted, so overlapping children are not counted twice.  A span
whose parent is not among the recorded spans counts as a root.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of closed intervals."""
    total = 0.0
    lo = hi = None
    for a, b in sorted(intervals):
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        elif b > hi:
            hi = b
    if hi is not None:
        total += hi - lo
    return total


def _clip(spans: Iterable[Span], start: float, end: float) -> list[tuple[float, float]]:
    out = []
    for s in spans:
        a, b = max(s.start, start), min(s.end, end)
        if b > a:
            out.append((a, b))
    return out


def roots(spans: list[Span]) -> list[Span]:
    """Spans with no parent, or whose parent was not recorded."""
    ids = {s.id for s in spans}
    return [s for s in spans if s.parent not in ids]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children, clipped to it."""
    ids = {s.id for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent in ids:
            children[s.parent].append(s)
    return {
        s.id: (s.end - s.start) - union_length(_clip(children[s.id], s.start, s.end))
        for s in spans
    }


def unattributed(spans: list[Span], start: float, end: float) -> float:
    """Time in [start, end] that no root span covers."""
    return (end - start) - union_length(_clip(roots(spans), start, end))


class Tracer:
    """Records a span around every call of the functions it wraps.

    Wrapping is installed for the duration of a ``with tracer.installed(...)``
    block and the original attributes are restored on exit, so untraced runs
    execute the library exactly as shipped.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    def clear(self) -> None:
        self.spans = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        attrs: Callable[[tuple, dict, object], dict] | None = None,
    ) -> Callable:
        """Return fn wrapped in a span; attrs(args, kwargs, result) annotates it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = Span(sid, parent, name, start, end)
                self.spans.append(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets: Iterable[tuple]) -> Iterator["Tracer"]:
        """Wrap each (owner, attribute, span name, attrs) target while inside.

        A module-level function is replaced in every loaded module of its
        package that holds it, so calls through ``from x import f`` are seen.
        """
        undo: list[tuple[object, str, object]] = []
        try:
            for owner, attr, name, attrs in targets:
                original = getattr(owner, attr)
                wrapped = self.wrap(name, original, attrs)
                holders = [owner]
                if not isinstance(owner, type):
                    package = owner.__name__.split(".")[0]
                    holders = [
                        mod
                        for mod_name, mod in list(sys.modules.items())
                        if mod_name.split(".")[0] == package
                        and getattr(mod, attr, None) is original
                    ]
                for holder in holders:
                    undo.append((holder, attr, original))
                    setattr(holder, attr, wrapped)
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)


def write_spans(spans: list[Span], path: str) -> None:
    """One JSON object per line: id, parent, name, start, end, attrs."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(
                json.dumps(
                    {
                        "id": s.id,
                        "parent": s.parent,
                        "name": s.name,
                        "start": s.start,
                        "end": s.end,
                        "attrs": s.attrs,
                    }
                )
                + "\n"
            )
