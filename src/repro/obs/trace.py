"""Lightweight spans with pluggable sinks.

A *span* wraps one logical operation — a ranking query, a kernel
invocation, a benchmark repetition — and records its duration plus
free-form attributes:

    with trace("t_erank", n=relation.size):
        tuple_expected_ranks(relation)

Spans nest via a :mod:`contextvars` stack, so a query span shows the
kernel spans it contains through their ``parent_id``.  The outermost
span of a stack additionally mints a **trace id** that every nested
span (and :func:`emit_event` record) inherits, so one query's full
tree — planner decision, kernel invocation, retries, degradation —
is reconstructable from a JSONL trace by filtering on ``trace_id``.
Finished spans go to the configured sink (:class:`NullSink` by
default, :class:`LoggingSink` for stdlib logging, :class:`JsonlSink`
for a machine-readable trace file) and their durations also land in
the default metrics registry as ``span.<name>.seconds`` histograms.

Tracing follows the registry's enablement: when the default registry
is disabled, :func:`trace` returns a shared no-op handle and costs one
attribute load — the same zero-cost contract as the metrics layer.
"""

from __future__ import annotations

import itertools
import json
import logging
import threading
import time
import uuid
from contextvars import ContextVar
from pathlib import Path
from types import TracebackType
from typing import IO, Protocol

from repro.obs.metrics import get_registry

__all__ = [
    "JsonlSink",
    "LoggingSink",
    "NullSink",
    "Sink",
    "current_span_id",
    "current_trace_id",
    "emit_event",
    "get_sink",
    "set_sink",
    "trace",
    "trace_root",
]


class Sink(Protocol):
    """Anything that accepts finished-span dictionaries."""

    def emit(self, span: dict) -> None:  # pragma: no cover - protocol
        ...


class NullSink:
    """Discards spans (the default)."""

    def emit(self, span: dict) -> None:
        return None


class LoggingSink:
    """Forwards spans to a stdlib logger, one INFO record each."""

    def __init__(
        self,
        logger: logging.Logger | None = None,
        *,
        level: int = logging.INFO,
    ) -> None:
        self.logger = logger if logger is not None else logging.getLogger(
            "repro.obs"
        )
        self.level = level

    def emit(self, span: dict) -> None:
        self.logger.log(
            self.level,
            "span %s: %.6fs %s",
            span.get("name"),
            span.get("duration_seconds", 0.0),
            span.get("attributes") or "",
        )


class JsonlSink:
    """Appends one JSON object per span to a file (JSON lines).

    Accepts a path (opened lazily, append mode) or an open text
    stream.  :meth:`write` takes arbitrary JSON-serialisable records,
    which the CLI uses to append a final metrics snapshot after the
    span lines.

    ``max_bytes`` caps the file so a long capture or trace session
    cannot grow it unboundedly: once the next record would push past
    the cap, one final ``{"type": "truncation_notice", ...}`` record
    is written (so readers can tell a capped file from a crashed
    writer) and every later record is silently dropped and counted in
    :attr:`dropped_records`.
    """

    def __init__(
        self,
        target: Path | str | IO[str],
        *,
        max_bytes: int | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(
                f"max_bytes must be > 0, got {max_bytes!r}"
            )
        if isinstance(target, (str, Path)):
            self._path: Path | None = Path(target)
            self._stream: IO[str] | None = None
        else:
            self._path = None
            self._stream = target
        self.max_bytes = max_bytes
        self.dropped_records = 0
        self._bytes_written = 0
        self._truncated = False
        # Spans may finish on several threads at once; the lock keeps
        # each JSON line atomic (no interleaved partial writes).
        self._lock = threading.Lock()

    @property
    def truncated(self) -> bool:
        """Whether the ``max_bytes`` cap has tripped."""
        return self._truncated

    def _handle(self) -> IO[str]:
        if self._stream is None:
            assert self._path is not None
            self._stream = self._path.open("a")
        return self._stream

    def emit(self, span: dict) -> None:
        self.write(span)

    def write(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            if self._truncated:
                self.dropped_records += 1
                return
            handle = self._handle()
            if self.max_bytes is not None:
                size = len(line.encode("utf-8"))
                if self._bytes_written + size > self.max_bytes:
                    self._truncated = True
                    self.dropped_records = 1
                    notice = json.dumps(
                        {
                            "type": "truncation_notice",
                            "max_bytes": self.max_bytes,
                            "bytes_written": self._bytes_written,
                        },
                        sort_keys=True,
                    )
                    handle.write(notice + "\n")
                    handle.flush()
                    return
                self._bytes_written += size
            handle.write(line)
            handle.flush()

    def close(self) -> None:
        if self._stream is not None and self._path is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


_sink: Sink = NullSink()
_span_ids = itertools.count(1)
_active_span: ContextVar[int | None] = ContextVar(
    "repro_active_span", default=None
)
_active_trace: ContextVar[str | None] = ContextVar(
    "repro_active_trace", default=None
)


def get_sink() -> Sink:
    """The sink finished spans are emitted to."""
    return _sink


def set_sink(sink: Sink) -> Sink:
    """Swap the span sink; returns the previous one."""
    global _sink
    previous = _sink
    _sink = sink
    return previous


def current_span_id() -> int | None:
    """The innermost active span's id, if any (for correlation)."""
    return _active_span.get()


def current_trace_id() -> str | None:
    """The trace id of the active span stack, if any.

    Minted by the outermost span and inherited by everything nested
    inside it, including spans opened by other layers (planner, kernel,
    retry ladder) — so one id stitches a whole query together.
    """
    return _active_trace.get()


def new_trace_id() -> str:
    """A fresh, process-unique trace id (16 hex chars)."""
    return uuid.uuid4().hex[:16]


def emit_event(name: str, **attributes: object) -> None:
    """Emit a point-in-time record to the sink, inside the live trace.

    Events carry the ambient ``trace_id`` / ``span_id`` so they land in
    the right place of a reconstructed query tree; the retry layer uses
    them for "recovered after N attempts" / "retries exhausted" marks.
    Free (no record, no dict) while the default registry is disabled.
    """
    if not get_registry().enabled:
        return
    _sink.emit(
        {
            "type": "event",
            "name": name,
            "trace_id": _active_trace.get(),
            "span_id": _active_span.get(),
            "attributes": attributes,
        }
    )


class _SpanHandle:
    """Live span: times the block, then emits and records it."""

    __slots__ = (
        "name",
        "attributes",
        "span_id",
        "parent_id",
        "trace_id",
        "_start",
        "_token",
        "_trace_token",
        "_root",
        "error",
    )

    def __init__(
        self, name: str, attributes: dict, *, root: bool = False
    ) -> None:
        self.name = name
        self.attributes = attributes
        self.span_id = next(_span_ids)
        self.parent_id: int | None = None
        self.trace_id: str | None = None
        self.error: str | None = None
        self._start = 0.0
        self._token = None
        self._trace_token = None
        self._root = root

    def __enter__(self) -> "_SpanHandle":
        if not self._root:
            self.parent_id = _active_span.get()
        self._token = _active_span.set(self.span_id)
        trace_id = None if self._root else _active_trace.get()
        if trace_id is None:
            # Outermost span of the stack: mint the trace id that
            # every nested span and event will inherit.
            trace_id = new_trace_id()
            self._trace_token = _active_trace.set(trace_id)
        self.trace_id = trace_id
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        traceback: TracebackType | None,
    ) -> None:
        duration = time.perf_counter() - self._start
        if self._token is not None:
            _active_span.reset(self._token)
        if self._trace_token is not None:
            _active_trace.reset(self._trace_token)
        if exc is not None:
            self.error = f"{type(exc).__name__}: {exc}"
        registry = get_registry()
        if registry.enabled:
            registry.histogram(f"span.{self.name}.seconds").observe(
                duration
            )
        record = {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            # perf_counter origin: meaningless absolutely, but shared
            # by every span of the process, so Chrome-trace export can
            # lay spans out on one consistent timeline.
            "start_seconds": self._start,
            "duration_seconds": duration,
            "attributes": self.attributes,
        }
        if self.error is not None:
            record["error"] = self.error
        _sink.emit(record)


class _NullSpan:
    """Shared no-op handle returned while tracing is disabled."""

    __slots__ = ()
    name = "<disabled>"
    span_id = None
    parent_id = None
    trace_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


def trace(name: str, **attributes: object) -> _SpanHandle | _NullSpan:
    """Open a span around a block: ``with trace("query", k=5): ...``.

    Free (a shared no-op handle) when the default registry is
    disabled.
    """
    if not get_registry().enabled:
        return _NULL_SPAN
    return _SpanHandle(name, attributes)


def trace_root(name: str, **attributes: object) -> _SpanHandle | _NullSpan:
    """Like :func:`trace`, but the span starts a fresh trace even
    inside another span (one served request inside ``cli.serve``)."""
    if not get_registry().enabled:
        return _NULL_SPAN
    return _SpanHandle(name, attributes, root=True)
