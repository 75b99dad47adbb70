"""Tests for the multi-tenant serving core (:mod:`repro.serve`).

Unit layers (admission, coalescing, settings, wire schema) are
wall-clock-free via fake clocks; the integration layer drives a real
event loop against the paper's Figure 2 relation and asserts the
serving contract: every request resolves to exactly one typed
response, coalesced answers are digest-identical to direct engine
runs, and drain never orphans a request.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.engine.database import ProbabilisticDatabase
from repro.exceptions import (
    EngineError,
    OverloadedError,
    SchemaError,
)
from repro.obs import MetricsRegistry, answer_digest, set_registry
from repro.robust import FaultInjector, RetryPolicy
from repro.serve import (
    AdmissionController,
    ServeRequest,
    ServeSettings,
    ServingCore,
    TokenBucket,
    coalesce_key,
    handle_line,
    run_batch,
    serve_tcp,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def registry():
    fresh = MetricsRegistry(enabled=True)
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture
def db(fig2) -> ProbabilisticDatabase:
    database = ProbabilisticDatabase()
    database.create_relation("fig2", fig2)
    return database


def make_core(db, **overrides) -> ServingCore:
    settings = ServeSettings(**overrides)
    return ServingCore(
        db,
        settings=settings,
        retry=RetryPolicy(max_retries=1, base_delay=0.0),
    )


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_starts_full_and_refills_from_elapsed_time(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        assert bucket.take()
        assert bucket.take()
        assert not bucket.take()
        clock.advance(0.5)  # 1 token back at 2/s
        assert bucket.take()
        assert not bucket.take()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=3.0, clock=clock)
        clock.advance(60.0)
        assert bucket.tokens == 3.0


class TestAdmission:
    def make(self, queue_limit=2, rate=100.0, burst=100.0):
        clock = FakeClock()
        controller = AdmissionController(
            queue_limit=queue_limit,
            quota_for=lambda tenant: (rate, burst),
            clock=clock,
        )
        return controller, clock

    def test_admit_release_pairing(self):
        controller, _ = self.make()
        controller.admit("a")
        controller.admit("a")
        assert controller.in_system == 2
        controller.release()
        assert controller.in_system == 1

    def test_queue_full_shed_is_typed(self):
        controller, _ = self.make(queue_limit=1)
        controller.admit("a")
        with pytest.raises(OverloadedError) as excinfo:
            controller.admit("b")
        assert excinfo.value.reason == "queue_full"
        assert excinfo.value.tenant == "b"

    def test_quota_shed_names_the_tenant(self):
        controller, _ = self.make(queue_limit=10, burst=1.0, rate=0.1)
        controller.admit("a")
        with pytest.raises(OverloadedError) as excinfo:
            controller.admit("a")
        assert excinfo.value.reason == "quota"
        assert "'a'" in str(excinfo.value)

    def test_quota_is_per_tenant(self):
        controller, _ = self.make(queue_limit=10, burst=1.0, rate=0.1)
        controller.admit("a")
        controller.admit("b")  # b has its own bucket

    def test_draining_refuses_everything_first(self):
        controller, _ = self.make()
        controller.start_draining()
        with pytest.raises(OverloadedError) as excinfo:
            controller.admit("a")
        assert excinfo.value.reason == "draining"

    def test_shed_decisions_are_counted(self, registry):
        controller, _ = self.make(queue_limit=1)
        controller.admit("a")
        with pytest.raises(OverloadedError):
            controller.admit("b")
        counters = registry.snapshot()["counters"]
        assert counters['serve.shed{reason="queue_full"}'] == 1
        assert registry.snapshot()["gauges"]["serve.queue_depth"] == 1


class TestSettings:
    def test_quota_override_beats_the_default(self):
        settings = ServeSettings(
            tenant_rate=10.0,
            tenant_burst=5.0,
            quotas={"vip": (100.0, 50.0)},
        )
        assert settings.quota_for("vip") == (100.0, 50.0)
        assert settings.quota_for("anyone") == (10.0, 5.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"queue_limit": 0},
            {"tenant_rate": 0.0},
            {"tenant_burst": 0.5},
            {"quotas": {"x": (0.0, 5.0)}},
            {"default_deadline_ms": -1.0},
            {"drain_deadline_ms": -1.0},
            {"max_workers": 0},
            {"max_retries": -1},
        ],
    )
    def test_bad_settings_fail_eagerly(self, overrides):
        with pytest.raises(EngineError):
            ServeSettings(**overrides)


class TestCoalesceKey:
    def test_option_order_never_splits_identical_queries(self):
        a = coalesce_key("d", 3, "m", {"phi": 0.5, "ties": "shared"})
        b = coalesce_key("d", 3, "m", {"ties": "shared", "phi": 0.5})
        assert a == b

    def test_distinct_queries_get_distinct_keys(self):
        base = coalesce_key("d", 3, "m", {})
        assert coalesce_key("d", 4, "m", {}) != base
        assert coalesce_key("e", 3, "m", {}) != base
        assert coalesce_key("d", 3, "n", {}) != base
        assert coalesce_key("d", 3, "m", {"phi": 0.5}) != base


class TestRequestSchema:
    def test_round_trip(self):
        request = ServeRequest.from_json(
            {
                "relation": "r",
                "k": 3,
                "method": "median_rank",
                "tenant": "t",
                "options": {"ties": "shared"},
                "deadline_ms": 250,
            }
        )
        assert request.k == 3
        assert request.deadline_ms == 250.0
        assert request.options == {"ties": "shared"}

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            (["not", "an", "object"], "JSON object"),
            ({"relation": "r", "k": 1, "bogus": 1}, "unknown"),
            ({"k": 1}, "relation"),
            ({"relation": "r"}, "integer k"),
            ({"relation": "r", "k": True}, "integer k"),
            ({"relation": "r", "k": -1}, "integer k"),
            ({"relation": "r", "k": 1, "method": 7}, "method"),
            ({"relation": "r", "k": 1, "tenant": ""}, "tenant"),
            ({"relation": "r", "k": 1, "options": 3}, "options"),
            (
                {"relation": "r", "k": 1, "deadline_ms": -5},
                "deadline_ms",
            ),
        ],
    )
    def test_malformed_payloads_are_schema_errors(
        self, payload, fragment
    ):
        with pytest.raises(SchemaError) as excinfo:
            ServeRequest.from_json(payload)
        assert fragment in str(excinfo.value)


# ----------------------------------------------------------------------
# Integration: the serving contract on a live event loop
# ----------------------------------------------------------------------
class TestServingCore:
    def test_ok_answer_matches_direct_engine_run(self, db, fig2):
        core = make_core(db)

        async def scenario():
            response = await core.submit(
                ServeRequest(relation="fig2", k=2)
            )
            await core.drain()
            return response

        response = asyncio.run(scenario())
        assert response.status == "ok"
        direct = db.topk("fig2", 2)
        assert response.answer == direct.tids()
        assert response.answer_digest == answer_digest(direct)

    def test_identical_requests_coalesce_digest_identically(
        self, db, registry
    ):
        core = make_core(db)
        request = ServeRequest(relation="fig2", k=2)

        async def scenario():
            responses = await asyncio.gather(
                *(core.submit(request) for _ in range(6))
            )
            await core.drain()
            return responses

        responses = asyncio.run(scenario())
        assert all(r.status == "ok" for r in responses)
        digests = {r.answer_digest for r in responses}
        assert len(digests) == 1
        coalesced = [r for r in responses if r.coalesced]
        assert len(coalesced) == 5
        counters = registry.snapshot()["counters"]
        assert counters["serve.coalesced"] == 5
        assert counters["serve.coalesce.leaders"] == 1

    def test_coalescing_can_be_disabled(self, db, registry):
        core = make_core(db, coalesce=False)
        request = ServeRequest(relation="fig2", k=2)

        async def scenario():
            responses = await asyncio.gather(
                *(core.submit(request) for _ in range(3))
            )
            await core.drain()
            return responses

        responses = asyncio.run(scenario())
        assert all(r.status == "ok" for r in responses)
        assert not any(r.coalesced for r in responses)
        counters = registry.snapshot()["counters"]
        assert "serve.coalesced" not in counters

    def test_unknown_relation_is_a_typed_error(self, db):
        core = make_core(db)

        async def scenario():
            response = await core.submit(
                ServeRequest(relation="nope", k=2)
            )
            await core.drain()
            return response

        response = asyncio.run(scenario())
        assert response.status == "error"
        assert response.error_type == "RelationNotFoundError"

    def test_expired_deadline_is_a_typed_error(self, db):
        core = make_core(db)

        async def scenario():
            response = await core.submit(
                ServeRequest(relation="fig2", k=2, deadline_ms=0.0)
            )
            await core.drain()
            return response

        response = asyncio.run(scenario())
        assert response.status == "error"
        assert response.error_type == "DeadlineExceededError"

    def test_quota_exhaustion_sheds_with_reason(self, db):
        core = make_core(db, tenant_burst=1.0, tenant_rate=0.001)

        async def scenario():
            first = await core.submit(ServeRequest("fig2", 2))
            second = await core.submit(ServeRequest("fig2", 2))
            await core.drain()
            return first, second

        first, second = asyncio.run(scenario())
        assert first.status == "ok"
        assert second.status == "shed"
        assert second.shed_reason == "quota"

    def test_queue_limit_sheds_under_concurrency(
        self, db, monkeypatch
    ):
        core = make_core(db, queue_limit=1)
        original = ServingCore._run_query

        def slow_query(self, request, deadline):
            import time as _time

            _time.sleep(0.05)  # worker thread; the loop stays free
            return original(self, request, deadline)

        monkeypatch.setattr(ServingCore, "_run_query", slow_query)

        async def scenario():
            responses = await asyncio.gather(
                *(
                    core.submit(ServeRequest("fig2", 2))
                    for _ in range(3)
                )
            )
            await core.drain()
            return responses

        responses = asyncio.run(scenario())
        statuses = sorted(r.status for r in responses)
        assert statuses.count("ok") == 1
        assert statuses.count("shed") == 2
        assert {
            r.shed_reason for r in responses if r.status == "shed"
        } == {"queue_full"}

    def test_faults_degrade_but_still_answer(self, db):
        settings = ServeSettings(breaker_min_calls=2, breaker_window=4)
        core = ServingCore(
            db,
            settings=settings,
            injector=FaultInjector(error_rate=1.0, seed=3),
            retry=RetryPolicy(max_retries=0, base_delay=0.0),
        )

        async def scenario():
            responses = [
                await core.submit(ServeRequest("fig2", 2))
                for _ in range(4)
            ]
            await core.drain()
            return responses

        responses = asyncio.run(scenario())
        assert all(r.status == "ok" for r in responses)
        assert all(r.degraded for r in responses)
        # Persistent failures opened the rung breakers fleet-wide.
        assert "open" in core.breakers.states().values()

    def test_drain_sheds_new_requests_and_reports(self, db):
        core = make_core(db)

        async def scenario():
            report = await core.drain()
            late = await core.submit(ServeRequest("fig2", 2))
            return report, late

        report, late = asyncio.run(scenario())
        assert report["abandoned"] == 0
        assert late.status == "shed"
        assert late.shed_reason == "draining"

    def test_forced_drain_settles_every_request(
        self, db, monkeypatch
    ):
        core = make_core(db, drain_deadline_ms=10.0)
        original = ServingCore._run_query
        release = {"wait": 0.2}

        def slow_query(self, request, deadline):
            import time as _time

            _time.sleep(release["wait"])
            return original(self, request, deadline)

        monkeypatch.setattr(ServingCore, "_run_query", slow_query)

        async def scenario():
            request = ServeRequest("fig2", 2)
            pending = [
                asyncio.create_task(core.submit(request))
                for _ in range(3)
            ]
            await asyncio.sleep(0.02)  # leader on the pool, followers wait
            report = await core.drain()
            responses = await asyncio.gather(*pending)
            return report, responses

        report, responses = asyncio.run(scenario())
        assert core.inflight == 0
        # Exactly one typed outcome each; followers were abandoned.
        assert all(
            r.status in ("ok", "shed", "error") for r in responses
        )
        assert report["abandoned"] >= 1
        assert any(
            r.status == "shed" and r.shed_reason == "drained"
            for r in responses
        )


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
class TestTransport:
    def test_handle_line_reports_bad_json_in_band(self, db):
        core = make_core(db)

        async def scenario():
            record = await handle_line(core, "{nope")
            await core.drain()
            return record

        record = asyncio.run(scenario())
        assert record["status"] == "error"
        assert record["error_type"] == "SchemaError"
        assert "invalid JSON" in record["error"]

    def test_run_batch_preserves_input_order_and_ids(self, db):
        core = make_core(db)
        lines = [
            '{"relation": "fig2", "k": 2, "id": "first"}',
            "",
            '{"relation": "fig2", "k": 1, "id": "second"}',
            '{"relation": "fig2", "k": 2, "bogus": true, "id": 3}',
        ]
        responses = asyncio.run(run_batch(core, lines))
        assert [r["id"] for r in responses] == ["first", "second", 3]
        assert responses[0]["status"] == "ok"
        assert responses[2]["status"] == "error"
        assert "unknown" in responses[2]["error"]

    def test_tcp_round_trip(self, db):
        core = make_core(db)

        async def scenario():
            server = await serve_tcp(core, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b'{"relation": "fig2", "k": 2, "id": 7}\n'
                b'{"relation": "fig2", "k": 2, "id": 8}\n'
            )
            await writer.drain()
            writer.write_eof()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await core.drain()
            return [
                json.loads(line)
                for line in raw.decode().splitlines()
            ]

        records = asyncio.run(scenario())
        assert {record["id"] for record in records} == {7, 8}
        assert all(record["status"] == "ok" for record in records)
        digests = {record["answer_digest"] for record in records}
        assert len(digests) == 1


class TestTransportHostileInput:
    """Real sockets: one bad line is one error, never a dead link."""

    VALID = b'{"relation": "fig2", "k": 2, "id": %d}\n'

    @staticmethod
    async def _settle() -> None:
        """Wait out every other task, so handler deaths surface."""
        others = asyncio.all_tasks() - {asyncio.current_task()}
        if others:
            await asyncio.wait(others, timeout=5.0)
        await asyncio.sleep(0)

    def _exchange(self, db, bad_line: bytes):
        core = make_core(db)

        async def scenario():
            errors: list = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            server = await serve_tcp(core, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(self.VALID % 1 + bad_line + self.VALID % 3)
            await writer.drain()
            writer.write_eof()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await core.drain()
            await self._settle()
            return [
                json.loads(line) for line in raw.decode().splitlines()
            ], errors

        return asyncio.run(scenario())

    def _assert_one_error_line(self, records, errors, message):
        assert errors == []
        assert sorted(
            (r["id"] is None, r["status"]) for r in records
        ) == [(False, "ok"), (False, "ok"), (True, "error")]
        assert {r["id"] for r in records if r["status"] == "ok"} == {
            1,
            3,
        }
        (bad,) = [r for r in records if r["status"] == "error"]
        assert bad["error_type"] == "SchemaError"
        assert message in bad["error"]

    # 70 kB overruns with the newline already buffered; 300 kB
    # overruns before it arrives and must be skipped in pieces.
    @pytest.mark.parametrize("size", [70_000, 300_000])
    def test_overlong_line_is_a_per_line_error(self, db, size):
        line = b'{"relation": "' + b"x" * size + b'", "k": 2}\n'
        records, errors = self._exchange(db, line)
        self._assert_one_error_line(records, errors, "exceeds")

    def test_non_utf8_line_is_a_per_line_error(self, db):
        records, errors = self._exchange(db, b"\xff\xfe\n")
        self._assert_one_error_line(records, errors, "UTF-8")

    def test_client_abort_mid_pipeline_is_contained(self, db):
        import socket
        import struct

        core = make_core(db)

        async def scenario():
            errors: list = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            server = await serve_tcp(core, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            _, writer = await asyncio.open_connection(host, port)
            writer.write(b"".join(self.VALID % i for i in range(4)))
            await writer.drain()
            # Abort: RST instead of FIN, before any response lands.
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
            writer.transport.abort()
            for _ in range(2000):  # until the server has read them
                if core.inflight:
                    break
                await asyncio.sleep(0.001)
            while core.inflight:
                await asyncio.sleep(0.001)
            # The server keeps serving other connections.
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(self.VALID % 9)
            await writer.drain()
            writer.write_eof()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await core.drain()
            await self._settle()
            return json.loads(raw), errors

        record, errors = asyncio.run(scenario())
        assert record["id"] == 9 and record["status"] == "ok"
        assert errors == []


# ----------------------------------------------------------------------
# The repro serve CLI
# ----------------------------------------------------------------------
@pytest.fixture
def relation_csv(fig2, tmp_path):
    from repro.engine.io import save_attribute_csv

    path = tmp_path / "fig2.csv"
    save_attribute_csv(fig2, path)
    return path


class TestServeCLI:
    def run_cli(self, relation_csv, tmp_path, lines, *flags):
        from repro.cli import main

        workload = tmp_path / "workload.jsonl"
        workload.write_text("\n".join(lines) + "\n")
        return main(
            [
                "serve",
                str(relation_csv),
                "--workload",
                str(workload),
                *flags,
            ]
        )

    def test_batch_answers_and_exits_zero(
        self, relation_csv, tmp_path, capsys
    ):
        code = self.run_cli(
            relation_csv,
            tmp_path,
            [
                '{"relation": "fig2", "k": 2, "id": 1}',
                '{"relation": "fig2", "k": 2, "id": 2}',
            ],
        )
        assert code == 0
        captured = capsys.readouterr()
        records = [
            json.loads(line) for line in captured.out.splitlines()
        ]
        assert [r["status"] for r in records] == ["ok", "ok"]
        assert len({r["answer_digest"] for r in records}) == 1
        assert "2 ok, 0 shed" in captured.err

    def test_shed_requests_exit_with_code_11(
        self, relation_csv, tmp_path, capsys
    ):
        code = self.run_cli(
            relation_csv,
            tmp_path,
            [
                '{"relation": "fig2", "k": 2, "id": 1}',
                '{"relation": "fig2", "k": 3, "id": 2}',
            ],
            "--tenant-burst",
            "1",
            "--tenant-rate",
            "0.001",
        )
        assert code == 11
        records = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        statuses = sorted(r["status"] for r in records)
        assert statuses == ["ok", "shed"]

    def test_capture_records_coalesced_followers(
        self, relation_csv, tmp_path, capsys
    ):
        capture = tmp_path / "capture.jsonl"
        code = self.run_cli(
            relation_csv,
            tmp_path,
            ['{"relation": "fig2", "k": 2}'] * 3,
            "--capture-out",
            str(capture),
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in capture.read_text().splitlines()
            if line.strip()
        ]
        coalesced = [
            r
            for r in records
            if r.get("annotations", {}).get("coalesced")
        ]
        assert len(coalesced) == 2
        digests = {r["answer_digest"] for r in records}
        assert len(digests) == 1
