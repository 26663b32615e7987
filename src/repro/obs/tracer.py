"""Nested wall-clock spans, JSONL-serializable across threads and processes.

A span is one timed region of the pipeline (``stage.annotate``,
``service.extract_pages``, ...).  :class:`Tracer` keeps a per-thread
open-span stack for parent linkage, so nesting needs no explicit
plumbing: whatever span is open on the current thread when a new one
starts becomes its parent.  Span ids embed the process id *and* a
per-process tracer sequence number, so spans exported from ``run_corpus``
pool workers (shipped home inside
:class:`~repro.runtime.runner.SiteReport` and re-absorbed by the parent,
see :meth:`Tracer.absorb`) never collide with the parent's own — not
even in inline mode, where the per-site scoped tracers share the
parent's pid.

Finished spans are plain dicts::

    {"name": ..., "span_id": "pid.tracer:serial", "parent_id": ... | None,
     "start": epoch-seconds, "duration": seconds,
     "pid": ..., "thread": ..., "attrs": {...}}

and serialize one-per-line via :func:`write_spans_jsonl`.  Spans land in
the buffer at *exit* time, children before parents — a stable order
that reconstructs nesting from ``parent_id`` alone.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import IO, Iterable

__all__ = ["NULL_TRACER", "Tracer", "write_spans_jsonl"]

#: Per-process tracer sequence (``next`` is atomic in CPython) — part of
#: every span id, so two tracers in one process can never mint the same id.
_tracer_sequence = itertools.count(1)


class _SpanContext:
    """One open span; closes (and records itself) on ``__exit__``."""

    __slots__ = ("_tracer", "record", "_perf_started")

    def __init__(self, tracer: "Tracer", record: dict) -> None:
        self._tracer = tracer
        self.record = record
        self._perf_started = 0.0

    def set(self, **attrs) -> None:
        """Attach attributes to the span while it is open."""
        self.record["attrs"].update(attrs)

    def __enter__(self) -> "_SpanContext":
        stack = self._tracer._stack()
        if stack:
            self.record["parent_id"] = stack[-1].record["span_id"]
        stack.append(self)
        self.record["start"] = time.time()
        self._perf_started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.record["duration"] = time.perf_counter() - self._perf_started
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer._finished.append(self.record)


class Tracer:
    """Collects nested spans; thread-safe for concurrent span entry."""

    def __init__(self) -> None:
        self._finished: list[dict] = []  # list.append is atomic under the GIL
        self._local = threading.local()
        self._lock = threading.Lock()
        self._serial = 0
        self._pid = os.getpid()
        self._prefix = f"{self._pid}.{next(_tracer_sequence)}"

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> str:
        with self._lock:
            self._serial += 1
            return f"{self._prefix}:{self._serial}"

    def span(self, name: str, **attrs) -> _SpanContext:
        """Open a span: ``with tracer.span("stage.train", site=s): ...``."""
        return _SpanContext(
            self,
            {
                "name": name,
                "span_id": self._next_id(),
                "parent_id": None,
                "start": 0.0,
                "duration": 0.0,
                "pid": self._pid,
                "thread": threading.get_ident(),
                "attrs": attrs,
            },
        )

    # -- export ------------------------------------------------------------

    def export(self) -> list[dict]:
        """Finished spans in completion order (children before parents)."""
        return list(self._finished)

    def absorb(self, spans: Iterable[dict]) -> None:
        """Append spans exported elsewhere (a pool worker's tracer).

        Worker span ids embed the worker pid, so absorbed spans keep
        their internal parent links and cannot collide with local ids.
        """
        self._finished.extend(spans)

    def clear(self) -> None:
        self._finished.clear()


def write_spans_jsonl(spans: Iterable[dict], sink: IO[str]) -> int:
    """One span dict per line; returns the number of lines written."""
    count = 0
    for span in spans:
        sink.write(json.dumps(span, ensure_ascii=False, sort_keys=True) + "\n")
        count += 1
    return count


class _NullSpanContext:
    """Shared, stateless span context (disabled mode).

    Reentrant and thread-safe because it records nothing; ``set`` is
    accepted and dropped so instrumented code never branches on mode.
    """

    __slots__ = ()

    record: dict = {}

    def set(self, **attrs) -> None:  # noqa: ARG002
        return

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, *exc_info) -> None:
        return


_NULL_SPAN = _NullSpanContext()


class _NullTracer(Tracer):
    """The disabled tracer: one shared no-op span context, nothing kept."""

    def span(self, name: str, **attrs) -> _NullSpanContext:  # noqa: ARG002
        return _NULL_SPAN

    def absorb(self, spans) -> None:  # noqa: ARG002
        return


#: The process-wide disabled singleton handed out by :func:`repro.obs.tracer`
#: until :func:`repro.obs.enable` swaps in a live tracer.
NULL_TRACER = _NullTracer()
