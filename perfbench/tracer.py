"""In-memory span tracer that wraps the program's public functions.

The benchmark never edits the program: a :class:`Tracer` replaces chosen
functions and methods with timing wrappers for the length of one traced
iteration and restores the originals afterwards (:meth:`Tracer.unwrap_all`).

Every span records its name, start, end, parent span and thread, and the
tracer stamps one run id on all of them.  Spans stay in memory until the
run ends, when :meth:`Tracer.chrome_trace` renders them in the Chrome
trace-event JSON format (load it in ``chrome://tracing`` or Perfetto).

Self time is a span's duration minus the time its direct children cover.
Spans on one thread nest strictly (a wrapper opens and closes around one
call), so the self times of a root span's tree add up to the root's
duration exactly.  Spans opened on other threads (the socket coordinator
waits for its workers from a thread pool) overlap the main thread's spans;
they count as waiting time and are kept out of the self-time ledger.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple, Union

SpanName = Union[str, Callable[..., str]]


class Span:
    """One timed call: name, start/end (perf_counter seconds), parent."""

    __slots__ = ("span_id", "name", "start", "end", "parent", "thread",
                 "child_time")

    def __init__(self, span_id: int, name: str, start: float,
                 parent: Optional["Span"], thread: int):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_thread = threading.get_ident()
        self._patched: List[Tuple[object, str, object]] = []
        self._ids = itertools.count(1)

    # -- span recording ------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, time.perf_counter(),
                    stack[-1] if stack else None, threading.get_ident())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """``with tracer.span(name):`` for the benchmark's own steps."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- wrapping ------------------------------------------------------------------

    def wrap(self, owner, attribute: str, name: SpanName) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``owner`` is a class or a module; ``name`` is the span name, or a
        callable building it from the call's arguments.  The original is
        restored by :meth:`unwrap_all`.
        """
        original = owner.__dict__[attribute]
        namer = name if callable(name) else (lambda *args, **kwargs: name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(namer(*args, **kwargs))
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(span)

        setattr(owner, attribute, traced)
        self._patched.append((owner, attribute, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- derived views -------------------------------------------------------------

    def on_main_thread(self, span: Span) -> bool:
        return span.thread == self._main_thread

    def totals(self, spans: List[Span]) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a recursive
        name, so a function that calls itself is not counted twice.
        """
        table: Dict[str, Dict[str, float]] = {}
        for span in spans:
            row = table.setdefault(span.name,
                                   {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += span.self_time
            ancestor = span.parent
            while ancestor is not None and ancestor.name != span.name:
                ancestor = ancestor.parent
            if ancestor is None:
                row["total_s"] += span.duration
        return table

    def chrome_trace(self, metadata: Dict[str, object]) -> Dict[str, object]:
        """The spans as Chrome trace-event JSON (complete "X" events)."""
        origin = min((span.start for span in self.spans), default=0.0)
        threads: Dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda item: item.start):
            tid = threads.setdefault(span.thread, len(threads))
            events.append({
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": {"run_id": self.run_id, "span_id": span.span_id,
                         "parent": (span.parent.span_id
                                    if span.parent is not None else None)},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": dict(metadata, run_id=self.run_id)}
