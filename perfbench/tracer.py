"""Span recorder for the traced benchmark run.

Each traced function is replaced, for the duration of a run, by a wrapper
at every ``fracqm`` module attribute that holds it.  Callers inside the
package look names up in their own module globals (``fracqm.pimc`` calls
``sample_stable`` through ``fracqm.pimc.sample_stable``), so patching the
attribute by identity in every module catches each call at the boundary
where it crosses from one module into another.  ``restore`` puts every
original back.

A span is (id, name, start, end, parent, thread id, pass id, info).  The
parent of a span is the innermost open span on the same thread; a span
opened by a worker thread with nothing open on it is parented to the
innermost open span of the thread that installed the tracer, which is
the call that submitted the work.  A call that raises records no span.
Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    pass_id: int | None
    info: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack = self._stack()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str | Callable, fn: Callable, info: Callable | None = None):
        """Return fn wrapped in a span; `name` may derive the span name from
        the call's arguments, `info(args, kwargs, result)` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = tracer._owner_stack
                parent = owner[-1] if owner else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            tracer.spans.append(
                Span(sid, name(args, kwargs) if callable(name) else name,
                     start, end, parent, threading.get_ident(), tracer.pass_id,
                     info(args, kwargs, out) if info is not None else None)
            )
            return out

        return traced

    def install(self, targets: list[tuple[Callable, str | Callable, Callable | None]]):
        """Patch every fracqm module attribute that holds a target function.

        `targets` lists (original function, span name, info).
        """
        wrappers = {id(fn): self.wrap(name, fn, info) for fn, name, info in targets}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "fracqm" or mod_name.startswith("fracqm.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


class PassSpans:
    """Aggregates over the spans of one pass."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.children: dict[int | None, list[Span]] = defaultdict(list)
        for s in spans:
            self.children[s.parent].append(s)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def _nested_in_same_name(self, span: Span) -> bool:
        parent = self.by_id.get(span.parent)
        while parent is not None:
            if parent.name == span.name:
                return True
            parent = self.by_id.get(parent.parent)
        return False

    def inclusive(self, name: str) -> float:
        """Seconds inside `name`, counting recursive calls once."""
        return sum(s.duration for s in self.named(name) if not self._nested_in_same_name(s))

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def total(self, name: str, key: str) -> float:
        return sum((s.info or {}).get(key, 0) for s in self.named(name))

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it covered by child spans, on any thread."""
        kids = [(c.start, c.end) for c in self.children.get(span.id, [])]
        return span.duration - _union_length(kids)

    def layer_self(self, prefix: str) -> float:
        """Self time summed over every span of a layer, thread by thread."""
        return sum(self.self_time(s) for s in self.spans if s.name.startswith(prefix))

    def threads(self, name: str) -> int:
        return len({s.thread for s in self.named(name)})
