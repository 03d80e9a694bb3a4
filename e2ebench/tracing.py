"""In-memory span tracer and the wrappers that feed it from outside.

The program is not edited: :class:`Patcher` replaces a public function
(or method) with a wrapper that records a span around each call, both
where it is defined and wherever a ``repro`` module imported it by name,
and puts every original back on :meth:`Patcher.close`.

A span is ``(name, start, end, parent, trace)``.  Parents come from a
per-thread stack, so a span opened inside another on the same thread is
its child; spans opened on a fresh thread (the serving dispatcher, the
streaming pipeline's stage workers) start a new trace of their own.
Self time is a span's duration minus the union of its children's
intervals, so overlapping children are not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: ``hook(tracer, args, kwargs, result)`` run after a wrapped call; it
#: records counts (rows, MACs, bytes) or samples measured at that boundary
Hook = Callable[["Tracer", tuple, dict, object], None]


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    trace: int


class Tracer:
    """Collects spans and per-name counters in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str) -> Tuple[int, Optional[int], int, float]:
        stack = self._stack()
        span_id = next(self._ids)
        parent, trace = (stack[-1][0], stack[-1][1]) if stack else (None, span_id)
        stack.append((span_id, trace))
        return span_id, parent, trace, self.clock()

    def finish(self, name: str, token: Tuple[int, Optional[int], int, float]
               ) -> None:
        end = self.clock()
        span_id, parent, trace, start = token
        self._stack().pop()
        self.spans.append(Span(span_id, name, start, end, parent, trace))

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(key, []).append(value)

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[int, float]:
        """Self time of every span, keyed by span id."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result: Dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()),
                                key=lambda s: s.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span.span_id] = max(0.0, (span.end - span.start) - covered)
        return result

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        selfs = self.self_times()
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            entry = out.setdefault(span.name,
                                   {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += span.end - span.start
            entry["self_s"] += selfs[span.span_id]
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent, trace)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


def _wrap(tracer: Tracer, name: str, fn: Callable, hook: Optional[Hook]
          ) -> Callable:
    if inspect.isgeneratorfunction(fn):
        # a generator does its work on each ``next``: one span per item
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                token = tracer.start(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.finish(name, token)
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = tracer.start(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(name, token)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return wrapper


class Patcher:
    """Install span wrappers; :meth:`close` restores every original."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []

    def function(self, module_name: str, attr: str, span: str,
                 hook: Optional[Hook] = None) -> None:
        """Wrap ``module.attr`` and every ``repro`` alias of the same object."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapper = _wrap(self.tracer, span, original, hook)
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "repro" or name.startswith("repro.")):
                continue
            if getattr(other, attr, None) is original:
                self._saved.append((other, attr, original))
                setattr(other, attr, wrapper)

    def method(self, cls: type, attr: str, span: str,
               hook: Optional[Hook] = None) -> None:
        """Wrap a method defined on ``cls`` itself."""
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, _wrap(self.tracer, span, original, hook))

    def close(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
