"""One query, one lifecycle: capture, metering and tracing end to end.

* every execution path — ``db.topk``, the resilient executor, a served
  leader and follower, the ``topk`` CLI — writes exactly one capture
  record and at most one cost entry, through the single
  :func:`~repro.obs.capture.query_context` claim;
* one served request is one trace: the worker thread runs in the
  request's context, so ``db.topk`` nests under ``serve.request`` and
  worker-side structured logs carry the tenant;
* with no sink installed the claim reads no clock.
"""

from __future__ import annotations

import asyncio
import io
import json

import pytest

import repro.obs.capture as capture_module
from repro.cli import main
from repro.engine.database import ProbabilisticDatabase
from repro.engine.io import save_attribute_csv
from repro.engine.query import ResilientExecutor
from repro.obs import MetricsRegistry, set_registry, set_sink, trace
from repro.obs.capture import CaptureLog, set_capture
from repro.obs.costs import CostLedger, set_cost_ledger
from repro.obs.capture import query_context
from repro.obs.logging import configure_logging
from repro.robust import FaultInjector, RetryPolicy
from repro.serve import ServeRequest, ServingCore


class Collect:
    """A span sink that keeps every record."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def spans(self, name: str) -> list[dict]:
        return [
            r
            for r in self.records
            if r["type"] == "span" and r["name"] == name
        ]


@pytest.fixture
def sinks(tmp_path):
    """Enabled registry, collecting span sink, capture log, ledger."""
    registry = MetricsRegistry(enabled=True)
    previous_registry = set_registry(registry)
    spans = Collect()
    previous_sink = set_sink(spans)
    path = tmp_path / "capture.jsonl"
    log = CaptureLog(path)
    previous_capture = set_capture(log)
    ambient = CostLedger()
    previous_ledger = set_cost_ledger(ambient)
    try:
        yield spans, log, path, ambient
    finally:
        set_cost_ledger(previous_ledger)
        set_capture(previous_capture)
        log.close()
        set_sink(previous_sink)
        set_registry(previous_registry)


def _records(log: CaptureLog, path) -> list[dict]:
    log.close()
    return [json.loads(line) for line in path.read_text().splitlines()]


def _database(fig2) -> ProbabilisticDatabase:
    database = ProbabilisticDatabase()
    database.create_relation("fig2", fig2)
    return database


def _serve(database, requests, ledger, **core_options):
    core = ServingCore(
        database,
        retry=RetryPolicy(max_retries=1, base_delay=0.0),
        ledger=ledger,
        **core_options,
    )

    async def scenario():
        responses = await asyncio.gather(
            *(core.submit(request) for request in requests)
        )
        await core.drain()
        return responses

    return asyncio.run(scenario())


# ----------------------------------------------------------------------
# Every execution path: one capture record, one cost entry
# ----------------------------------------------------------------------
def _db_topk(fig2, sinks, tmp_path):
    _, log, path, ambient = sinks
    _database(fig2).topk("fig2", 2, executor=ResilientExecutor())
    return _records(log, path), ambient.entries


def _executor_execute(fig2, sinks, tmp_path):
    _, log, path, ambient = sinks
    ResilientExecutor().execute(fig2, 2)
    return _records(log, path), ambient.entries


def _served_leader(fig2, sinks, tmp_path):
    _, log, path, ambient = sinks
    explicit = CostLedger()
    (response,) = _serve(
        _database(fig2),
        [ServeRequest(relation="fig2", k=2, tenant="acme")],
        explicit,
    )
    assert response.status == "ok"
    # The core's explicit ledger wins over the ambient one, and the
    # tenant arrives through bind_tenant, not a parameter.
    assert ambient.entries == ()
    assert [entry.tenant for entry in explicit.entries] == ["acme"]
    assert explicit.entries[0].trace_id == response.trace_id
    return _records(log, path), explicit.entries


def _served_follower(fig2, sinks, tmp_path):
    _, log, path, ambient = sinks
    explicit = CostLedger()
    request = ServeRequest(relation="fig2", k=2, tenant="acme")
    leader, follower = _serve(
        _database(fig2), [request, request], explicit
    )
    assert not leader.coalesced and follower.coalesced
    records = [
        record
        for record in _records(log, path)
        if record.get("annotations", {}).get("coalesced")
    ]
    assert [
        record["annotations"]["leader_trace_id"] for record in records
    ] == [leader.trace_id]
    # One execution, billed once, to the leader's trace.
    assert [entry.trace_id for entry in explicit.entries] == [
        leader.trace_id
    ]
    return records, [
        entry
        for entry in explicit.entries
        if entry.trace_id == follower.trace_id
    ]


def _cli_topk(fig2, sinks, tmp_path):
    _, log, path, ambient = sinks
    csv_path = tmp_path / "fig2.csv"
    save_attribute_csv(fig2, csv_path)
    out = tmp_path / "cli-capture.jsonl"
    code = main(
        [
            "topk",
            str(csv_path),
            "-k",
            "2",
            "--inject-faults",
            "0.2",
            "--fault-seed",
            "3",
            "--capture-out",
            str(out),
        ]
    )
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records[0]["resilience"]["injector"]["seed"] == 3
    return records, ambient.entries


#: case -> (runner, capture records, cost entries) for the subject.
PATHS = {
    "db.topk": (_db_topk, 1, 1),
    "executor.execute": (_executor_execute, 1, 1),
    "served-leader": (_served_leader, 1, 1),
    "served-follower": (_served_follower, 1, 0),
    "cli-topk": (_cli_topk, 1, 1),
}


@pytest.mark.parametrize("case", list(PATHS))
def test_every_path_records_and_meters_once(case, fig2, sinks, tmp_path):
    runner, expected_records, expected_entries = PATHS[case]
    records, entries = runner(fig2, sinks, tmp_path)
    assert len(records) == expected_records
    assert len(entries) == expected_entries


def test_off_path_reads_no_clock(fig2, monkeypatch):
    def forbidden() -> float:
        raise AssertionError("the off path read a clock")

    monkeypatch.setattr(capture_module.time, "perf_counter", forbidden)
    with query_context(fig2, 2, relation_name="fig2") as query:
        assert query is None


# ----------------------------------------------------------------------
# One served request, one trace
# ----------------------------------------------------------------------
def test_served_request_is_one_trace(fig2, sinks):
    spans, _, _, _ = sinks
    log_stream = io.StringIO()
    configure_logging(log_stream, level="warning")
    try:
        # Every non-last-resort rung faults, so the ladder degrades on
        # the worker thread and logs robust.degrade/robust.fallback.
        # The enclosing span stands in for the CLI's cli.serve span.
        with trace("cli.serve") as session:
            (response,) = _serve(
                _database(fig2),
                [ServeRequest(relation="fig2", k=2, tenant="acme")],
                None,
                injector=FaultInjector(error_rate=1.0, seed=0),
            )
    finally:
        configure_logging(None)
    assert response.status == "ok" and response.degraded
    (root,) = spans.spans("serve.request")
    # The request is its own trace, not a branch of the session's.
    assert root["parent_id"] is None
    assert root["trace_id"] == response.trace_id != session.trace_id
    span_records = [
        r
        for r in spans.records
        if r["type"] == "span" and r["name"] != "cli.serve"
    ]
    assert {r["trace_id"] for r in span_records} == {root["trace_id"]}
    (topk,) = spans.spans("db.topk")
    assert topk["parent_id"] == root["span_id"]
    assert spans.spans("robust.execute")
    assert spans.spans("robust.rung")
    worker_lines = [
        json.loads(line)
        for line in log_stream.getvalue().splitlines()
        if '"robust.' in line
    ]
    assert worker_lines
    for line in worker_lines:
        assert line["tenant"] == "acme"
        assert line["trace_id"] == root["trace_id"]
