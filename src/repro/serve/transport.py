"""Line-JSON transports over the serving core.

Two thin adapters around :class:`~repro.serve.core.ServingCore`, both
speaking the same wire format — one JSON object per line, request in,
response out:

* :func:`run_batch` — submit a workload of request lines
  concurrently and collect the responses (the ``repro serve`` CLI's
  default mode, and the chaos soak's driver);
* :func:`serve_tcp` — an asyncio TCP server; each connection
  pipelines request lines, responses stream back as they resolve,
  correlated by an optional client-chosen ``id`` echoed verbatim.

Malformed lines become ``status="error"`` responses for that line
only — a bad request never takes down the connection or the batch.
That covers lines that are not JSON, not UTF-8, or longer than
:data:`MAX_LINE_BYTES`; a client that hangs up mid-pipeline forfeits
its responses without disturbing the server.
"""

from __future__ import annotations

import asyncio
import contextlib
import json

from repro.exceptions import SchemaError
from repro.serve.core import ServingCore, ServeRequest

__all__ = ["MAX_LINE_BYTES", "handle_line", "run_batch", "serve_tcp"]

#: The longest request line a TCP connection accepts (asyncio's
#: default stream limit); a longer line is skipped through its
#: newline and answered with a per-line ``SchemaError``.
MAX_LINE_BYTES = 2**16


def _schema_error(message: str, request_id: object = None) -> dict:
    return {
        "status": "error",
        "id": request_id,
        "error_type": "SchemaError",
        "error": message,
    }


async def handle_line(core: ServingCore, line: str) -> dict:
    """Resolve one request line to one response object.

    An optional ``id`` field is stripped before validation and echoed
    in the response, so pipelined clients can correlate out-of-order
    completions.
    """
    request_id: object = None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        return _schema_error(f"invalid JSON: {error.msg}")
    if isinstance(payload, dict):
        request_id = payload.pop("id", None)
    try:
        request = ServeRequest.from_json(payload)
    except SchemaError as error:
        return _schema_error(str(error), request_id)
    response = await core.submit(request)
    record = response.to_json()
    record["id"] = request_id
    return record


async def run_batch(
    core: ServingCore,
    lines: list[str],
    *,
    drain: bool = True,
) -> list[dict]:
    """Submit every line concurrently; responses in input order.

    Blank lines are skipped.  With ``drain`` (the default) the core is
    drained afterwards, so a batch run exercises the full lifecycle.
    """
    tasks = [
        asyncio.create_task(handle_line(core, line))
        for line in lines
        if line.strip()
    ]
    responses = [await task for task in tasks]
    if drain:
        await core.drain()
    return responses


async def _read_line(reader: asyncio.StreamReader) -> str | dict | None:
    """The next request line, an error response, or ``None`` at EOF.

    An overlong line is discarded through its newline, so the next
    line parses from a clean boundary.
    """
    try:
        raw = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as eof:
        raw = eof.partial
    except asyncio.LimitOverrunError as overrun:
        consumed = overrun.consumed
        while True:
            await reader.readexactly(consumed)
            try:
                await reader.readuntil(b"\n")
                break
            except asyncio.IncompleteReadError:
                break
            except asyncio.LimitOverrunError as more:
                consumed = more.consumed
        return _schema_error(
            f"request line exceeds {MAX_LINE_BYTES} bytes"
        )
    if not raw:
        return None
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as error:
        return _schema_error(f"request line is not UTF-8: {error}")


async def serve_tcp(
    core: ServingCore,
    host: str = "127.0.0.1",
    port: int = 0,
) -> asyncio.base_events.Server:
    """Start the line-JSON TCP server; the caller owns its lifecycle.

    Each connection pipelines: every received line spawns a request
    task and responses are written back as they complete (use ``id``
    to correlate).  The caller typically runs
    ``server.serve_forever()`` and, on shutdown, closes the server and
    drains the core.
    """

    async def handler(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()

        async def send(record: dict) -> None:
            async with write_lock:
                # A client that hung up forfeits its responses; its
                # queries still settle, nothing more is written.
                if writer.is_closing():
                    return
                try:
                    writer.write(
                        (json.dumps(record) + "\n").encode("utf-8")
                    )
                    await writer.drain()
                except ConnectionError:
                    writer.close()

        async def respond(line: str) -> None:
            await send(await handle_line(core, line))

        try:
            # A reset mid-read means the client is gone; its in-flight
            # requests still settle before the connection closes.
            with contextlib.suppress(ConnectionError):
                while True:
                    line = await _read_line(reader)
                    if line is None:
                        break
                    if isinstance(line, dict):
                        await send(line)
                        continue
                    task = asyncio.create_task(respond(line))
                    pending.add(task)
                    task.add_done_callback(pending.discard)
            if pending:
                await asyncio.gather(*pending)
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    return await asyncio.start_server(
        handler, host, port, limit=MAX_LINE_BYTES
    )
