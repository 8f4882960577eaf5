"""Benchmark-side tracing: spans around calls into the program's layers.

The program under test is not edited.  :class:`Tracer` replaces public
functions and methods of ``repro`` with thin wrappers for the length of
a traced run and restores the originals afterwards:

- a *span* wrapper records ``[id, name, start, end, parent id, run id]``
  for every call, in memory; the parent is the innermost open span of
  the calling thread, so nesting follows the call stack;
- a *count* wrapper only increments a counter, for per-minute hot calls
  where a span each would cost more than the work it measures.

A layer's self time is the duration of its spans minus the time covered
by their child spans (children of one synchronous call never overlap).
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import sys
import threading
import time
from typing import Callable

__all__ = ["Tracer", "SpanTable"]

# Span record fields.
ID, NAME, START, END, PARENT, RUN = range(6)


class Tracer:
    """Installs span/count wrappers and keeps what they record in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        #: Spans are recorded only while ``active``; checks run with it off.
        self.active = False
        self.run_id = ""
        #: Hooks by span name: ``after[name](args, result)`` runs once
        #: the span has closed.
        self.after: dict[str, Callable] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        stack = self._stack()
        rec = [next(self._ids), name, time.perf_counter(), 0.0,
               stack[-1] if stack else 0, self.run_id]
        stack.append(rec[ID])
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    def span_wrapper(self, name: str, func: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            with tracer.span(name):
                result = func(*args, **kwargs)
            after = tracer.after.get(name)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def count_wrapper(self, name: str, func: Callable) -> Callable:
        tracer = self
        counts = self.counts

        def counted(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return func(*args, **kwargs)

        counted.__wrapped__ = func
        return counted

    # -- installation -------------------------------------------------
    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls: type, attr: str, name: str, count: bool = False) -> None:
        """Wrap ``cls.attr`` and every subclass's own override of it."""
        make = self.count_wrapper if count else self.span_wrapper
        todo, seen = [cls], set()
        while todo:
            klass = todo.pop()
            if klass in seen:
                continue
            seen.add(klass)
            todo.extend(klass.__subclasses__())
            raw = klass.__dict__.get(attr)
            if raw is not None:
                self._set(klass, attr, make(name, raw))

    def wrap_function(self, func: Callable, name: str) -> None:
        """Wrap a module-level function wherever ``repro`` bound its name."""
        wrapped = self.span_wrapper(name, func)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._set(module, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------
    def table(self) -> "SpanTable":
        return SpanTable(self.spans)


class SpanTable:
    """Self and inclusive times per span name, computed once."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        by_id = {rec[ID]: rec for rec in spans}
        child_time: dict[int, float] = collections.defaultdict(float)
        for rec in spans:
            if rec[PARENT]:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        self.total: dict[str, float] = collections.defaultdict(float)
        self.self_time: dict[str, float] = collections.defaultdict(float)
        self.calls: collections.Counter = collections.Counter()
        #: Inclusive time per (parent name, name).
        self.under: dict[tuple[str, str], float] = collections.defaultdict(float)
        for rec in spans:
            dur = rec[END] - rec[START]
            self.total[rec[NAME]] += dur
            self.self_time[rec[NAME]] += dur - child_time.get(rec[ID], 0.0)
            self.calls[rec[NAME]] += 1
            parent = by_id.get(rec[PARENT])
            if parent is not None:
                self.under[(parent[NAME], rec[NAME])] += dur
        self._child_time = child_time

    def attributed_frac(self, roots: tuple[str, ...]) -> float:
        """Share of the root spans' wall time covered by their children."""
        wall = covered = 0.0
        for rec in self.spans:
            if rec[NAME] in roots and not rec[PARENT]:
                wall += rec[END] - rec[START]
                covered += self._child_time.get(rec[ID], 0.0)
        return covered / wall if wall > 0 else 0.0
