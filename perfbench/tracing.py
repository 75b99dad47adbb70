"""Timing shims around the program's public entry points.

The traced run wraps functions of the program, from the benchmark's own
code, and records one span per call: name, start, end, parent and an
optional description of the call.  The parent comes from a context
variable, so it is per thread and per asyncio task: interleaved
requests on one event loop do not adopt each other's spans.

Known gap: ``run_in_executor`` does not copy context variables, so a
span on a serving worker thread has no parent.  Layers on both sides of
that hop are attributed in aggregate (see :func:`aggregate_self`), not
per request.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    span_id: int
    parent: int
    name: str
    start: float
    end: float
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Installs shims, keeps spans in memory, restores on uninstall."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, function, describe: Callable | None):
        ids = self._ids
        current = self._current
        spans = self.spans

        def finish(span_id, parent, start, end, args, kwargs, result):
            info = describe(args, kwargs, result) if describe else {}
            spans.append(Span(span_id, parent, name, start, end, info))

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def async_shim(*args, **kwargs):
                span_id = next(ids)
                parent = current.get()
                token = current.set(span_id)
                start = time.perf_counter()
                result = None
                try:
                    result = await function(*args, **kwargs)
                    return result
                finally:
                    end = time.perf_counter()
                    current.reset(token)
                    finish(span_id, parent, start, end, args, kwargs, result)

            return async_shim

        @functools.wraps(function)
        def shim(*args, **kwargs):
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                current.reset(token)
                finish(span_id, parent, start, end, args, kwargs, result)

        return shim

    def patch(
        self,
        owner: object,
        attribute: str,
        name: str,
        describe: Callable | None = None,
    ) -> None:
        """Replace ``owner.attribute`` by a timing shim named ``name``."""
        original = (
            owner.__dict__[attribute]
            if isinstance(owner, type)
            else getattr(owner, attribute)
        )
        setattr(owner, attribute, self._wrap(name, original, describe))
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------
    def by_name(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def self_seconds(self, name: str) -> list[float]:
        """Per-span self time: duration minus its children's durations."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent:
                covered[span.parent] = (
                    covered.get(span.parent, 0.0) + span.seconds
                )
        return [
            span.seconds - covered.get(span.span_id, 0.0)
            for span in self.spans
            if span.name == name
        ]

    def aggregate_self(self, name: str, child: str) -> list[float]:
        """Per-call self time of ``name`` across a thread hop.

        The ``child`` spans ran on other threads and cannot be joined to
        their parents, so their total time is spread evenly over the
        ``name`` calls: each call's own span time minus the mean child
        time per call.  Same-thread children are subtracted exactly.
        """
        own = self.self_seconds(name)
        if not own:
            return []
        share = sum(span.seconds for span in self.by_name(child)) / len(own)
        return [seconds - share for seconds in own]


def rank_describe(model_of: Callable[[object], str]):
    """Describe a ``rank(relation, k, method=..., **options)`` call."""

    def describe(args, kwargs, result) -> dict:
        relation = args[0] if args else kwargs.get("relation")
        method = args[2] if len(args) > 2 else kwargs.get("method")
        accessed = None
        if result is not None:
            accessed = result.metadata.get("tuples_accessed")
        return {
            "cell": f"{method or 'expected_rank'}.{model_of(relation)}",
            "tuples_accessed": accessed,
        }

    return describe


def degraded_describe(args, kwargs, result) -> dict:
    degraded = bool(
        result is not None and result.metadata.get("degraded", False)
    )
    return {"degraded": degraded}


def install_engine(recorder: Recorder, model_of: Callable[[object], str]):
    """Shims over ingest, models, the engine and the ranking kernels."""
    import repro.core.semantics as semantics
    import repro.engine.database as database
    import repro.engine.io as io
    import repro.engine.query as query
    from repro.models.attribute import AttributeLevelRelation
    from repro.models.tuple_level import TupleLevelRelation

    def rows_describe(args, kwargs, result) -> dict:
        return {"rows": 0 if result is None else _row_count(result)}

    recorder.patch(io, "load_attribute_csv", "engine.io.load_attribute_csv",
                   rows_describe)
    recorder.patch(io, "load_tuple_csv", "engine.io.load_tuple_csv",
                   rows_describe)
    recorder.patch(AttributeLevelRelation, "__init__", "models.relation_build")
    recorder.patch(TupleLevelRelation, "__init__", "models.relation_build")
    describe = rank_describe(model_of)
    # ``rank`` is imported by name into the engine modules; patch every
    # binding the engine calls through.
    for module in (semantics, database, query):
        recorder.patch(module, "rank", "core.rank", describe)
    recorder.patch(database.ProbabilisticDatabase, "topk",
                   "engine.database.topk", degraded_describe)
    recorder.patch(database.ProbabilisticDatabase, "relation_digest",
                   "engine.database.relation_digest")
    recorder.patch(query.ResilientExecutor, "execute",
                   "engine.query.execute", degraded_describe)
    recorder.patch(query.TopKPlanner, "plan", "engine.query.plan")


def install_live(recorder: Recorder) -> None:
    """Shims over the maintained store and its ranking views."""
    from repro.engine.maintenance import MaintainedTupleStore
    from repro.engine.views import RankingView

    recorder.patch(MaintainedTupleStore, "snapshot",
                   "engine.maintenance.snapshot")
    for write in ("insert", "delete", "update_probability", "update_score"):
        recorder.patch(MaintainedTupleStore, write,
                       "engine.maintenance.write")
    recorder.patch(RankingView, "current", "engine.views.current")


def install_serve(recorder: Recorder) -> None:
    """Shims over transport, serving core and admission."""
    import repro.serve.transport as transport
    from repro.serve.admission import AdmissionController
    from repro.serve.core import ServingCore

    recorder.patch(transport, "handle_line", "serve.transport.handle_line")
    recorder.patch(ServingCore, "submit", "serve.core.submit")
    recorder.patch(AdmissionController, "admit", "serve.admission.admit")


def _row_count(relation) -> int:
    """CSV rows behind a loaded relation (one per alternative)."""
    total = 0
    for row in relation:
        score = getattr(row, "score", None)
        total += score.support_size if hasattr(score, "support_size") else 1
    return total
