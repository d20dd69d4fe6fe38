"""Asyncio HTTP/1.1 front-end over :class:`~repro.service.manager.JobManager`.

Pure standard library (``asyncio.start_server`` + hand-rolled request
parsing): the service must not add hard dependencies.  One request per
connection (``Connection: close``), JSON bodies throughout, except the
event stream which speaks ``text/event-stream``.

Endpoints
---------
``GET  /healthz``              liveness + queue occupancy
``GET  /stats``                manager counters
``GET  /metrics``              Prometheus text exposition of the process
                               metrics registry (engine, cache, routing
                               and service series — see ``repro.obs``)
``GET  /experiments``          registered experiments (name, description)
``POST /jobs``                 submit ``{"experiment": .., "params": {..},
                               "client": ..}`` -> 202 job snapshot with
                               ``coalesced`` flag; 404 unknown experiment,
                               400 bad params, 429 queue full / rate
                               limited (with ``Retry-After``)
``GET  /jobs``                 all job snapshots
``GET  /jobs/{id}``            one job snapshot
``GET  /jobs/{id}/result``     ``{"result": .., "text": ..}``; long-polls
                               up to ``?wait=SECONDS``; 409 while
                               unfinished, 410 cancelled, 500 failed
``DELETE /jobs/{id}``          cancel -> ``{"cancelled": bool}``
``GET  /jobs/{id}/events``     server-sent events: replay then live
                               stream until the job is terminal
"""

from __future__ import annotations

import asyncio
import json
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.obs.logs import get_logger
from repro.obs.metrics import REGISTRY
from repro.service.jobs import JobEvent
from repro.service.manager import JobManager, QueueFull, UnknownJob
from repro.service.ratelimit import RateLimited

__all__ = ["ServiceServer", "request"]

_log = get_logger("service.http")

#: Request-line + headers size guard (a service, not a general proxy).
_MAX_HEADER_BYTES = 32 * 1024
#: JSON body size guard.
_MAX_BODY_BYTES = 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    """Routed straight to an error response."""

    def __init__(self, status: int, message: str, headers: dict | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


def _event_payload(event: JobEvent) -> dict[str, Any]:
    return {
        "sequence": event.sequence,
        "kind": event.kind,
        "payload": event.payload,
        "timestamp": event.timestamp,
    }


class ServiceServer:
    """The reproduction service's HTTP listener."""

    def __init__(self, manager: JobManager, host: str = "127.0.0.1", port: int = 8151):
        self.manager = manager
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        """Bind and start accepting connections (``port=0`` picks a free
        port; ``self.port`` is updated to the bound one)."""
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, query, body = await self._read_request(reader)
            except _HttpError as exc:
                await self._respond_error(writer, exc)
                return
            try:
                if path.startswith("/jobs/") and path.endswith("/events"):
                    await self._stream_events(writer, path.split("/")[2])
                    return
                if path == "/metrics" and method == "GET":
                    await self._respond_text(
                        writer,
                        200,
                        REGISTRY.render_prometheus(),
                        content_type="text/plain; version=0.0.4; charset=utf-8",
                    )
                    return
                status, payload, headers = await self._route(method, path, query, body)
            except _HttpError as exc:
                await self._respond_error(writer, exc)
                return
            except Exception as exc:  # noqa: BLE001 - last-resort 500
                _log.warning("%s %s -> 500 (%s: %s)", method, path, type(exc).__name__, exc)
                await self._respond_error(
                    writer, _HttpError(500, f"{type(exc).__name__}: {exc}")
                )
                return
            await self._respond_json(writer, status, payload, headers)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict, Any]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "request head too large") from None
        except asyncio.IncompleteReadError as exc:
            raise _HttpError(400, "truncated request") from exc
        if len(head) > _MAX_HEADER_BYTES:
            raise _HttpError(413, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {lines[0]!r}")
        method, target, _version = parts
        split = urlsplit(target)
        query = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body: Any = None
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise _HttpError(400, f"request body is not valid JSON: {exc}") from exc
        return method.upper(), split.path, query, body

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def _route(
        self, method: str, path: str, query: dict, body: Any
    ) -> tuple[int, Any, dict]:
        manager = self.manager
        if path == "/healthz" and method == "GET":
            return 200, {"status": "ok", **manager.stats()}, {}
        if path == "/stats" and method == "GET":
            return 200, manager.stats(), {}
        if path == "/experiments" and method == "GET":
            return 200, [
                {"name": spec.name, "description": spec.description}
                for spec in manager.registry.specs()
            ], {}
        if path == "/jobs" and method == "POST":
            return await self._submit(body)
        if path == "/jobs" and method == "GET":
            return 200, [manager.status(job.id) for job in manager.jobs()], {}
        if path.startswith("/jobs/"):
            segments = [s for s in path.split("/") if s]
            job_id = segments[1]
            try:
                if len(segments) == 2 and method == "GET":
                    return 200, manager.status(job_id), {}
                if len(segments) == 2 and method == "DELETE":
                    cancelled = await manager.cancel(job_id)
                    return 200, {
                        "cancelled": cancelled,
                        "state": manager.status(job_id)["state"],
                    }, {}
                if len(segments) == 3 and segments[2] == "result" and method == "GET":
                    return await self._result(job_id, query)
            except UnknownJob as exc:
                raise _HttpError(404, str(exc.args[0])) from None
        raise _HttpError(404, f"no route for {method} {path}")

    async def _submit(self, body: Any) -> tuple[int, Any, dict]:
        if not isinstance(body, dict) or "experiment" not in body:
            raise _HttpError(400, 'body must be {"experiment": .., "params": {..}}')
        params = body.get("params")
        if params is not None and not isinstance(params, dict):
            raise _HttpError(400, '"params" must be an object')
        try:
            handle = await self.manager.submit(
                body["experiment"], params, client=body.get("client")
            )
        except KeyError as exc:
            raise _HttpError(404, str(exc.args[0])) from None
        except ValueError as exc:
            raise _HttpError(400, str(exc)) from None
        except RateLimited as exc:
            retry_after = exc.retry_after
            header = "60" if retry_after == float("inf") else f"{retry_after:.3f}"
            raise _HttpError(429, str(exc), {"Retry-After": header}) from None
        except QueueFull as exc:
            raise _HttpError(429, str(exc), {"Retry-After": "1"}) from None
        snapshot = handle.status()
        snapshot["coalesced"] = handle.coalesced
        return 202, snapshot, {}

    async def _result(self, job_id: str, query: dict) -> tuple[int, Any, dict]:
        from repro.analysis.reporting import jsonable

        manager = self.manager
        wait = float(query.get("wait", "0") or "0")
        if wait > 0:
            try:
                await manager.wait(job_id, timeout=wait)
            except asyncio.TimeoutError:
                pass
        status = manager.status(job_id)
        state = status["state"]
        if state in ("queued", "running", "retrying"):
            raise _HttpError(409, f"job {job_id} is not finished (state: {state})")
        if state == "cancelled":
            raise _HttpError(410, f"job {job_id} was cancelled")
        if state == "failed":
            raise _HttpError(
                500, f"job {job_id} failed: {(status['error'] or {}).get('message')}"
            )
        job = manager._get(job_id)  # noqa: SLF001 - same package
        return 200, {
            "id": job.id,
            "experiment": job.experiment,
            "text": job.text,
            "result": jsonable(job.result),
            "engine": job.engine_stats,
        }, {}

    # ------------------------------------------------------------------ #
    # Responses
    # ------------------------------------------------------------------ #
    async def _respond_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        headers: dict | None = None,
    ) -> None:
        data = json.dumps(payload).encode()
        head = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(data)}",
            "Connection: close",
        ]
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + data)
        await writer.drain()

    async def _respond_text(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        text: str,
        content_type: str = "text/plain; charset=utf-8",
    ) -> None:
        data = text.encode()
        head = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(data)}",
            "Connection: close",
        ]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + data)
        await writer.drain()

    async def _respond_error(self, writer: asyncio.StreamWriter, exc: _HttpError) -> None:
        await self._respond_json(
            writer, exc.status, {"error": exc.message}, exc.headers
        )

    async def _stream_events(self, writer: asyncio.StreamWriter, job_id: str) -> None:
        try:
            stream = self.manager.events(job_id)
            # Validate the id before committing to a 200 stream header.
            self.manager.status(job_id)
        except UnknownJob as exc:
            await self._respond_error(writer, _HttpError(404, str(exc.args[0])))
            return
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode())
        await writer.drain()
        async for event in stream:
            frame = f"data: {json.dumps(_event_payload(event))}\n\n"
            writer.write(frame.encode())
            await writer.drain()


async def request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Any = None,
    timeout: float = 30.0,
) -> tuple[int, dict[str, str], Any]:
    """Minimal asyncio HTTP client for tests and the smoke script.

    Returns ``(status, headers, body)`` — the body parsed as JSON for
    ``application/json`` responses and returned as text for everything
    else (``/metrics`` speaks the Prometheus exposition format).
    Streams are not supported (read the socket directly for ``/events``).
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = b"" if body is None else json.dumps(body).encode()
        head = [
            f"{method.upper()} {path} HTTP/1.1",
            f"Host: {host}:{port}",
            "Connection: close",
        ]
        if payload:
            head.append("Content-Type: application/json")
            head.append(f"Content-Length: {len(payload)}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass
    head_bytes, _, body_bytes = raw.partition(b"\r\n\r\n")
    lines = head_bytes.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    parsed: Any = None
    if body_bytes:
        if "application/json" in headers.get("content-type", ""):
            parsed = json.loads(body_bytes)
        else:
            parsed = body_bytes.decode("utf-8", errors="replace")
    return status, headers, parsed
