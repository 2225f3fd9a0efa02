"""In-memory span recorder installed around the program's public functions.

Nothing under ``src/`` knows about tracing: :class:`Tracer` replaces a
public function, method or classmethod with a wrapper that records a span
(name, start, end, parent span, op id) and, optionally, a count taken
from the call's arguments or result. :meth:`Tracer.uninstall` puts the
originals back, so a run can alternate traced and untraced ops and report
the difference as the tracing overhead.

Spans stay in a list until the run ends; :meth:`Tracer.dump` writes them
out. A span's *self* time is its duration minus the time its direct
children cover (calls are single-threaded and properly nested).
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``count(args, kwargs, result) -> {counter_name: value}``
CountFn = Callable[[tuple, dict, Any], Dict[str, float]]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "children_s", "counts")

    def __init__(self, name: str, start: float, parent: int, op: Any) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.children_s = 0.0
        self.counts: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """Records nested spans around patched callables."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op: Any = "setup"
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any, str, Optional[CountFn]]] = []

    # -- recording -------------------------------------------------------
    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             count: Optional[CountFn] = None) -> Any:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent, self.op)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].children_s += span.duration
        if count is not None:
            span.counts.update(count(args, kwargs, result))
        return result

    def timed(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Record one span around a direct call from the benchmark."""
        return self.call(name, fn, args, kwargs)

    # -- patching --------------------------------------------------------
    def patch(self, owner: Any, attr: str, name: str,
              count: Optional[CountFn] = None) -> None:
        """Wrap ``owner.attr`` (module function, method or classmethod)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw, name, count))

    def install(self) -> None:
        for owner, attr, raw, name, count in self._patches:
            setattr(owner, attr, self._wrap(raw, name, count))

    def uninstall(self) -> None:
        for owner, attr, raw, _, _ in self._patches:
            setattr(owner, attr, raw)

    def _wrap(self, raw: Any, name: str, count: Optional[CountFn]) -> Any:
        tracer = self
        if isinstance(raw, classmethod):
            inner = raw.__func__

            @functools.wraps(inner)
            def class_wrapper(cls: Any, *args: Any, **kwargs: Any) -> Any:
                return tracer.call(name, inner, (cls,) + args, kwargs, count)

            return classmethod(class_wrapper)

        @functools.wraps(raw)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, raw, args, kwargs, count)

        return wrapper

    # -- summaries -------------------------------------------------------
    def select(self, name: str, ops: Any = None) -> List[Span]:
        """Spans called ``name``; ``ops`` restricts to those op ids."""
        return [
            span for span in self.spans
            if span.name == name and (ops is None or span.op in ops)
        ]

    def total_ms(self, name: str, ops: Any = None, self_time: bool = False) -> float:
        spans = self.select(name, ops)
        return 1e3 * sum(s.self_time if self_time else s.duration for s in spans)

    def total_count(self, name: str, key: str, ops: Any = None) -> float:
        return sum(span.counts.get(key, 0.0) for span in self.select(name, ops))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    {
                        "name": s.name, "start": s.start, "end": s.end,
                        "parent": s.parent, "op": s.op,
                        "self_ms": 1e3 * s.self_time, "counts": s.counts,
                    }
                    for s in self.spans
                ],
                handle,
            )
