"""``serve-small``: an open-loop generator against ``repro serve``.

The server is a subprocess started the way an operator would start it
(``python -m repro serve FILES --port 0 --max-workers 2``).  This
process is the one generator: it sends bursts of identical queries at
their scheduled times over two loopback connections and times every
request from when it was due, so a stall also charges the requests
queued behind it.  The traced run replays the same request stream in
process through ``handle_line``, because the subprocess cannot be traced
from outside.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import K, ROOT, child_env
from inputs import SERVE_CONNECTIONS

#: Per-tenant quota, far above any tenant's share of the offered rate,
#: so admission never sheds.
TENANT_RATE = 10_000.0
TENANT_BURST = 10_000.0
MAX_WORKERS = 2
#: How long to wait for the last responses after the schedule ends.
DRAIN_SECONDS = 10.0
START_SECONDS = 60.0


def server_command(plan: dict) -> list[str]:
    paths = [spec["path"] for spec in plan["relations"].values()]
    return [
        sys.executable, "-m", "repro", "serve", *paths,
        "--port", "0",
        "--max-workers", str(MAX_WORKERS),
        "--tenant-rate", str(TENANT_RATE),
        "--tenant-burst", str(TENANT_BURST),
    ]


class Server:
    """A ``repro serve`` subprocess; always stopped by :meth:`stop`."""

    def __init__(self, plan: dict) -> None:
        env = child_env()
        env.pop("REPRO_FAULT_SEED", None)
        self.launched = time.perf_counter()
        self.process = subprocess.Popen(
            server_command(plan),
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_SECONDS
        buffered = b""
        stream = self.process.stderr
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if not ready:
                continue
            chunk = os.read(stream.fileno(), 4096)
            if not chunk:
                break
            buffered += chunk
            for line in buffered.decode("utf-8", "replace").splitlines():
                if line.startswith("serving on "):
                    return int(line.rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError(
            "repro serve did not report 'serving on': "
            + buffered.decode("utf-8", "replace")[-2000:]
        )

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT drains the server; kill it if it does not exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stderr.close()


def request_line(request_id: int, query: dict, tenant: str) -> bytes:
    payload = {
        "id": request_id,
        "relation": query["relation"],
        "k": K,
        "method": query["method"],
        "tenant": tenant,
    }
    return (json.dumps(payload) + "\n").encode("utf-8")


def classify(record: dict, reference: str) -> str | None:
    """Why a response counts as failed, or ``None`` when it is correct."""
    status = record.get("status")
    if status == "shed":
        return f"shed: {record.get('shed_reason')}"
    if status != "ok":
        return f"{record.get('error_type')}: {record.get('error')}"
    if record.get("degraded"):
        return "degraded answer"
    if record.get("answer_digest") != reference:
        return (
            f"answer digest {record.get('answer_digest')} != "
            f"reference {reference}"
        )
    return None


class Tally:
    """Outcomes of one window of requests."""

    def __init__(self, references: list[str], expected: int) -> None:
        self.references = references
        self.expected = expected
        self.latencies: list[float] = []
        self.lags: list[float] = []
        self.failures: list[str] = []
        self.failed = 0
        self.ok = 0
        self.coalesced = 0
        self.shed = 0
        self.start = 0.0
        self.last = 0.0

    def record(self, record: dict, query: int, latency: float) -> None:
        reason = classify(record, self.references[query])
        self.latencies.append(latency)
        if record.get("status") == "shed":
            self.shed += 1
        if reason is None:
            self.ok += 1
            self.coalesced += bool(record.get("coalesced"))
        else:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(reason)

    def missing(self, timeout: float) -> None:
        """Requests never answered fail with the drain timeout as latency."""
        absent = self.expected - len(self.latencies)
        self.failed += absent
        self.latencies.extend([timeout] * absent)
        if absent:
            self.failures.append(f"{absent} request(s) never answered")

    def throughput(self) -> float:
        return self.ok / max(self.last - self.start, 1e-9)


def warm_up(port: int, queries: list[dict], references: list[str]) -> list:
    """Send each distinct query once, in turn; return failures."""
    failures = []
    with LineClient(port) as (send, receive):
        for index, query in enumerate(queries):
            send(request_line(index, query, "warmup"))
            reason = classify(json.loads(receive()), references[index])
            if reason:
                failures.append(f"warm-up {query['key']}: {reason}")
    return failures


class LineClient:
    """A blocking line-JSON client connection (set-up only)."""

    def __init__(self, port: int) -> None:
        import socket

        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.reader = self.sock.makefile("rb")

    def __enter__(self):
        return self.sock.sendall, self.reader.readline

    def __exit__(self, *exc) -> None:
        self.reader.close()
        self.sock.close()


def encode_bursts(bursts: list[dict], queries: list[dict]) -> list[tuple]:
    """``(offset, connection, payload, [(id, query)])`` per burst."""
    encoded = []
    request_id = 0
    for burst in bursts:
        query = queries[burst["query"]]
        lines = []
        ids = []
        for tenant in burst["tenants"]:
            lines.append(request_line(request_id, query, tenant))
            ids.append((request_id, burst["query"]))
            request_id += 1
        encoded.append(
            (burst["offset"], burst["connection"], b"".join(lines), ids)
        )
    return encoded


async def until(loop, due_at: float) -> None:
    """Poll the event loop until ``due_at``, yielding the CPU each turn.

    The generator never sleeps on a timer.  On a virtual machine a timer
    wake-up ran about a millisecond late, and that lag was charged to
    every request, since each is timed from when it was due; and a
    halted virtual CPU waits on the host to run again, which under load
    from other guests doubled the p90 of some runs.  Polling keeps one
    CPU awake and reads each response as it arrives; ``sched_yield``
    hands the CPU to a server thread woken on it, so the generator does
    not compete with the server it measures.
    """
    while loop.time() < due_at:
        os.sched_yield()
        await asyncio.sleep(0)


async def tcp_window(port: int, encoded: list, tally: Tally) -> None:
    """Open loop over TCP: send each burst when due, time from due."""
    loop = asyncio.get_running_loop()
    connections = [
        await asyncio.open_connection("127.0.0.1", port)
        for _ in range(SERVE_CONNECTIONS)
    ]
    due: dict[int, tuple[float, int]] = {}
    finished = asyncio.Event()
    if tally.expected == 0:
        finished.set()

    async def read(reader: asyncio.StreamReader) -> None:
        while True:
            raw = await reader.readline()
            if not raw:
                return
            now = loop.time()
            record = json.loads(raw)
            due_at, query = due.pop(record["id"])
            tally.record(record, query, now - due_at)
            tally.last = now
            if len(tally.latencies) == tally.expected:
                finished.set()

    readers = [asyncio.create_task(read(reader)) for reader, _ in connections]
    start = loop.time() + 0.05
    tally.start = start
    for offset, connection, payload, ids in encoded:
        due_at = start + offset
        await until(loop, due_at)
        tally.lags.append(loop.time() - due_at)
        for request_id, query in ids:
            due[request_id] = (due_at, query)
        writer = connections[connection][1]
        writer.write(payload)
        await writer.drain()
    try:
        await asyncio.wait_for(finished.wait(), DRAIN_SECONDS)
    except asyncio.TimeoutError:
        tally.missing(DRAIN_SECONDS)
    for _, writer in connections:
        writer.close()
        await writer.wait_closed()
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)


async def inprocess_window(core, encoded: list, tally: Tally) -> None:
    """The same open loop, in process through ``handle_line``."""
    import repro.serve.transport as transport

    loop = asyncio.get_running_loop()

    async def one(line: str, query: int, due_at: float) -> None:
        record = await transport.handle_line(core, line)
        now = loop.time()
        tally.record(record, query, now - due_at)
        tally.last = max(tally.last, now)

    tasks = []
    start = loop.time() + 0.05
    tally.start = start
    for offset, _, payload, ids in encoded:
        due_at = start + offset
        await until(loop, due_at)
        tally.lags.append(loop.time() - due_at)
        for line, (_, query) in zip(
            payload.decode("utf-8").splitlines(), ids
        ):
            tasks.append(asyncio.create_task(one(line, query, due_at)))
    await asyncio.gather(*tasks)


def references(plan: dict) -> tuple[list[str], list[str]]:
    """Reference digests per distinct query, and cross-check problems."""
    from repro.core.semantics import rank
    from repro.obs import answer_digest

    from inputs import load
    from worker import crosscheck_expected_rank

    relations = {
        name: load(spec) for name, spec in plan["relations"].items()
    }
    digests = []
    problems = []
    for query in plan["queries"]:
        relation = relations[query["relation"]]
        result = rank(relation, K, method=query["method"])
        digests.append(answer_digest(result))
        if query["method"] == "expected_rank":
            problem = crosscheck_expected_rank(relation, result, K)
            if problem:
                problems.append(f"{query['key']}: {problem}")
    return digests, problems


def inprocess_core(plan: dict, setup_recorder):
    """Catalog and serving core configured as ``repro serve`` builds them."""
    from repro.engine.database import ProbabilisticDatabase
    from repro.obs.costs import CostLedger
    from repro.serve import ServeSettings, ServingCore

    from inputs import load
    from tracing import install_engine

    models = {}
    install_engine(setup_recorder, lambda relation: models.get(
        id(relation), "tuple.uu"))
    database = ProbabilisticDatabase()
    for name, spec in plan["relations"].items():
        relation = load(spec)
        models[id(relation)] = f"{spec['model']}.{spec['distribution']}"
        database.create_relation(name, relation)
    setup_recorder.uninstall()
    settings = ServeSettings(
        tenant_rate=TENANT_RATE,
        tenant_burst=TENANT_BURST,
        max_workers=MAX_WORKERS,
    )
    core = ServingCore(database, settings=settings, ledger=CostLedger())
    return core, models


def traced_inprocess(plan, encoded, references, untraced, traced):
    """Replay the stream in process, untraced and then traced.

    Returns the set-up recorder (ingest spans), the window recorder and
    any warm-up failures; the two tallies are filled in place.
    """
    from tracing import Recorder, install_engine, install_serve

    setup = Recorder()
    recorder = Recorder()
    core, models = inprocess_core(plan, setup)
    problems = []

    async def replay() -> None:
        import repro.serve.transport as transport

        for index, query in enumerate(plan["queries"]):
            line = request_line(index, query, "warmup").decode("utf-8")
            reason = classify(
                await transport.handle_line(core, line), references[index]
            )
            if reason:
                problems.append(f"in-process warm-up {query['key']}: {reason}")
        await inprocess_window(core, encoded, untraced)
        install_engine(
            recorder, lambda relation: models.get(id(relation), "tuple.uu")
        )
        install_serve(recorder)
        try:
            await inprocess_window(core, encoded, traced)
        finally:
            recorder.uninstall()
            await core.drain()

    asyncio.run(replay())
    return setup, recorder, problems
