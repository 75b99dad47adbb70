"""Workload capture: a durable JSONL record of every executed query.

A :class:`CaptureLog` appends one JSON object per ranking query — the
dataset's content digest, the request (``k``/method/options), what
actually ran (plan, trace id, tuples accessed, wall time, retry and
degradation outcomes), and a stable digest of the ranked answer.  The
resulting file is the unit of reproducibility: :mod:`repro.obs.replay`
re-runs it against the current code and diffs the digests, and
:mod:`repro.obs.report` aggregates it into a session report.

Capture is ambient, like the span sink: install a log with
:func:`set_capture` (the CLI's ``--capture-out`` does this per
invocation) and every query that flows through
``ProbabilisticDatabase.topk``, a
:class:`~repro.engine.query.ResilientExecutor`, or the ``topk`` CLI
records itself.

The same layers meter the query in the ambient
:class:`~repro.obs.costs.CostLedger`.  Both go through one claim,
:func:`query_context`: the outermost executing layer claims the query
and calls :meth:`QueryContext.finish` once, every nested layer gets
``None``.  With neither sink installed the claim is one ContextVar
read plus ``None`` checks, and no clock is read.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterator, Mapping

from repro.obs.costs import CostLedger, CostMeter, get_cost_ledger
from repro.obs.explain import _json_safe
from repro.obs.logging import current_tenant
from repro.obs.metrics import count
from repro.obs.trace import JsonlSink, current_trace_id

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.result import TopKResult
    from repro.engine.query import ResilientExecutor
    from repro.models.attribute import AttributeLevelRelation
    from repro.models.tuple_level import TupleLevelRelation

    Relation = AttributeLevelRelation | TupleLevelRelation

__all__ = [
    "CAPTURE_SCHEMA_VERSION",
    "CaptureLog",
    "QueryContext",
    "answer_digest",
    "get_capture",
    "query_context",
    "read_jsonl",
    "relation_digest",
    "resilience_config",
    "set_capture",
]

#: Bumped on breaking changes to the capture record layout.
CAPTURE_SCHEMA_VERSION = 1

#: Significant digits a statistic keeps inside :func:`answer_digest`.
#: Coarse enough that cross-platform ulp noise never flips a digest,
#: fine enough that a real behavioural change always does.
_DIGEST_PRECISION = 9


def relation_digest(relation: "Relation") -> str:
    """Stable 16-hex content digest of a relation.

    Hashes the canonical JSON document of
    :func:`repro.engine.io.relation_document`, so the digest survives
    save/load round-trips and identifies the *data*, not the object.
    """
    from repro.engine.io import relation_document

    payload = json.dumps(
        relation_document(relation), sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def answer_digest(result: "TopKResult") -> str:
    """Stable 16-hex digest of a ranked answer.

    Covers the tuple ids in rank order plus each reported statistic
    rounded to :data:`_DIGEST_PRECISION` significant digits — two
    replays agree iff they ranked the same tuples in the same order
    with the same (to rounding) statistics.
    """
    payload = json.dumps(
        [
            [
                item.tid,
                None
                if item.statistic is None
                else float(f"{item.statistic:.{_DIGEST_PRECISION}g}"),
            ]
            for item in result
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def resilience_config(
    executor: "ResilientExecutor | None",
) -> dict | None:
    """A replayable description of an executor's configuration.

    Everything :func:`repro.obs.replay.replay_capture` needs to
    rebuild an identical degradation ladder: retry policy, deadline,
    Monte-Carlo budget, the shared seed, and — when a chaos injector
    is attached — its rates, seed, and budget.
    """
    if executor is None:
        return None
    config: dict = {
        "deadline_ms": executor.deadline_ms,
        "max_retries": executor.retry.max_retries,
        "base_delay": executor.retry.base_delay,
        "max_delay": executor.retry.max_delay,
        "seed": executor.seed,
        "mc_batch": executor.mc_batch,
        "mc_max_samples": executor.mc_max_samples,
    }
    injector = executor.injector
    if injector is not None:
        config["injector"] = {
            "error_rate": injector.error_rate,
            "latency_rate": injector.latency_rate,
            "latency_seconds": injector.latency_seconds,
            "corrupt_rate": injector.corrupt_rate,
            "drop_rate": injector.drop_rate,
            "seed": injector.seed,
            "fault_budget": injector.fault_budget,
        }
    return config


def _plain_json(value: object) -> bool:
    """Whether ``value`` is natively JSON (no lossy repr coercion)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, Mapping):
        return all(
            isinstance(key, str) and _plain_json(item)
            for key, item in value.items()
        )
    if isinstance(value, (list, tuple)):
        return all(_plain_json(item) for item in value)
    return False


class CaptureLog:
    """Append-only JSONL log of executed queries.

    Wraps a :class:`~repro.obs.trace.JsonlSink` (same locking, same
    optional ``max_bytes`` truncation cap) and stamps each record with
    a sequence number and ``schema_version``.
    """

    def __init__(
        self,
        target: Path | str | IO[str],
        *,
        max_bytes: int | None = None,
    ) -> None:
        self._sink = JsonlSink(target, max_bytes=max_bytes)
        self._next_seq = 0

    @property
    def truncated(self) -> bool:
        """Whether the underlying sink's byte cap has tripped."""
        return self._sink.truncated

    def record_query(
        self,
        relation: "Relation",
        result: "TopKResult",
        *,
        k: int,
        method: str,
        options: Mapping[str, object] | None = None,
        wall_seconds: float | None = None,
        relation_name: str | None = None,
        executor: "ResilientExecutor | None" = None,
        trace_id: str | None = None,
        annotations: Mapping[str, object] | None = None,
    ) -> dict:
        """Append one executed query; returns the written record.

        ``annotations`` is a free-form extension point for layers
        above the engine: the serving core marks coalesced requests
        here (tenant, shared leader trace id), keeping the core record
        layout stable.
        """
        from repro.models.attribute import AttributeLevelRelation

        options = dict(options or {})
        metadata = dict(result.metadata)
        accessed = metadata.get("tuples_accessed")
        degraded = bool(metadata.get("degraded", False))
        resilience = resilience_config(executor)
        if trace_id is None:
            trace_id = metadata.get("trace_id") or current_trace_id()
        if degraded:
            reason = (
                "degradation ladder answered with "
                f"{result.method!r}"
            )
        elif metadata.get("resilient"):
            reason = "degradation ladder answered at the exact rung"
        elif result.method != method:
            reason = "planner routed to a pruned variant"
        else:
            reason = "direct execution of the requested method"
        # A record replays faithfully only when its options are
        # natively JSON and any sampling is seeded (the executor seeds
        # its Monte-Carlo rung; a bare monte_carlo query is not).
        replayable = _plain_json(options) and (
            method != "monte_carlo" or executor is not None
        )
        record = {
            "type": "query",
            "schema_version": CAPTURE_SCHEMA_VERSION,
            "seq": self._next_seq,
            "relation": relation_name,
            "model": (
                "attribute"
                if isinstance(relation, AttributeLevelRelation)
                else "tuple"
            ),
            "n": relation.size,
            "dataset_digest": relation_digest(relation),
            "k": k,
            "method": method,
            "options": _json_safe(options),
            "replayable": replayable,
            "plan": {"method": result.method, "reason": reason},
            "trace_id": trace_id,
            "wall_seconds": wall_seconds,
            "tuples_accessed": (
                int(accessed) if accessed is not None else None
            ),
            "answer": list(result.tids()),
            "answer_digest": answer_digest(result),
            "degraded": degraded,
            "fallback_method": (
                str(metadata["fallback_method"]) if degraded else None
            ),
            "attempts": metadata.get("attempts"),
            "faults_survived": metadata.get("faults_survived"),
            "faults_injected": metadata.get("faults_injected"),
            "gf_fallback": bool(metadata.get("gf_fallback", False)),
            "resilience": resilience,
        }
        if annotations:
            record["annotations"] = _json_safe(dict(annotations))
        self._next_seq += 1
        self._sink.write(record)
        count("obs.capture.records")
        return record

    def close(self) -> None:
        self._sink.close()

    def __enter__(self) -> "CaptureLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


_capture: CaptureLog | None = None


def get_capture() -> CaptureLog | None:
    """The ambient capture log, if one is installed."""
    return _capture


def set_capture(log: CaptureLog | None) -> CaptureLog | None:
    """Install (or clear) the ambient log; returns the previous one."""
    global _capture
    previous = _capture
    _capture = log
    return previous


@dataclass
class QueryContext:
    """One claimed query: its identity and the sinks it reports to."""

    relation: "Relation"
    k: int
    method: str
    options: Mapping[str, object] | None
    relation_name: str | None
    executor: "ResilientExecutor | None"
    capture: CaptureLog | None
    meter: CostMeter | None
    start: float

    def finish(
        self, result: "TopKResult", *, trace_id: str | None = None
    ) -> None:
        """Write the capture record and the cost entry, if installed."""
        if self.capture is not None:
            self.capture.record_query(
                self.relation,
                result,
                k=self.k,
                method=self.method,
                options=self.options,
                wall_seconds=time.perf_counter() - self.start,
                relation_name=self.relation_name,
                executor=self.executor,
                trace_id=trace_id,
            )
        if self.meter is not None:
            self.meter.finish(
                result,
                k=self.k,
                n=self.relation.size,
                method=self.method,
                trace_id=trace_id,
            )


#: The one claim: ``None`` outside any query, a ledger inside an
#: unclaimed scope that carries it inward, else the claiming query.
_active: ContextVar[QueryContext | CostLedger | None] = ContextVar(
    "repro_query_context", default=None
)


@contextmanager
def query_context(
    relation: "Relation | None" = None,
    k: int = 0,
    method: str = "expected_rank",
    options: Mapping[str, object] | None = None,
    *,
    relation_name: str | None = None,
    executor: "ResilientExecutor | None" = None,
    ledger: CostLedger | None = None,
) -> Iterator[QueryContext | None]:
    """Claim one query for capture and metering; outermost wins.

    Yields a :class:`QueryContext` to the outermost layer that passes
    a ``relation`` and ``None`` to every layer inside it.  Without a
    ``relation`` the scope stays unclaimed and only carries ``ledger``
    inward (the serving core's explicit ledger).  An explicit ledger
    beats an enclosing scope's, which beats the ambient one; the cost
    entry's tenant is the one bound by ``bind_tenant``.
    """
    outer = _active.get()
    if isinstance(outer, QueryContext):
        yield None
        return
    if ledger is None:
        ledger = outer
    query = None
    if relation is not None:
        if ledger is None:
            ledger = get_cost_ledger()
        if ledger is None and _capture is None:
            yield None
            return
        query = QueryContext(
            relation,
            k,
            method,
            options,
            relation_name,
            executor,
            _capture,
            None if ledger is None else ledger.meter(tenant=current_tenant()),
            time.perf_counter(),
        )
    token = _active.set(ledger if query is None else query)
    try:
        yield query
    finally:
        _active.reset(token)


def read_jsonl(path: Path | str) -> tuple[list[dict], list[str]]:
    """Read a JSONL file, skipping malformed lines instead of raising.

    Returns ``(records, problems)``: every line that parsed to a JSON
    object, plus one human-readable description per line that did not
    (truncated writes, partial lines, non-object payloads).  Blank
    lines are ignored silently.  The capture/trace consumers —
    ``repro replay``, ``repro report``, ``repro chrome-trace`` — treat
    a non-empty ``problems`` list as "warn and exit 12", never as a
    crash: a half-written observability file should degrade the
    report, not destroy it.

    :class:`OSError` (missing file, unreadable path) still propagates
    — there is nothing to salvage from no file at all.
    """
    records: list[dict] = []
    problems: list[str] = []
    text = Path(path).read_text()
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            problems.append(
                f"line {number}: invalid JSON ({error.msg})"
            )
            continue
        if not isinstance(record, dict):
            problems.append(
                f"line {number}: expected an object, got "
                f"{type(record).__name__}"
            )
            continue
        records.append(record)
    return records, problems
