"""The experiment service: hosted campaigns over a minimal HTTP front.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` —
stdlib only, one JSON request/response per connection, chunked
transfer for the aggregate stream. The event loop owns the sockets;
campaigns execute on a bounded thread pool (each campaign then fans
its jobs across the process pool). A landed job wakes the loop via
``call_soon_threadsafe`` only when no wake-up is pending, so stream
subscribers wake without polling the campaign, and a stream writes at
most one progress line per :data:`STREAM_INTERVAL_S`: a campaign
landing hundreds of cached jobs costs a few lines, not one loop and
client wake-up per job. The line sent on subscribe and the settled
line go out at once.

Endpoints (all JSON)::

    GET  /health                     service + store counters
    POST /campaigns                  submit a CampaignSpec document
    GET  /campaigns                  list campaigns (id + progress)
    GET  /campaigns/{id}             full status snapshot
    GET  /campaigns/{id}/jobs        job coordinates -> report digests
    GET  /campaigns/{id}/stream      chunked NDJSON status updates
    POST /campaigns/{id}/cancel      stop between jobs (store keeps done work)
    GET  /reports/{digest}           stored report document, verbatim

Refusals are uniform: every client error is the
:class:`~repro.radio.errors.ProtocolError` shape mapped onto a 4xx —
``{"error": {"type": ..., "message": ...}}`` with the same
name-the-problem message discipline as the rest of the package. A
request whose line, headers and body do not all arrive within
:data:`READ_DEADLINE_S` gets a 408 and the connection is closed.

Submitting the spec of a campaign that already ran is the designed
idiom, not an error: expansion dedupes against the report store, so
the resubmission is pure cache hits — that is also how a campaign
killed mid-flight (or a crashed server) resumes.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import hashlib
import json
import threading
from typing import Any

from ..corpus.store import CorpusStore
from ..radio.errors import ProtocolError
from .campaign import Campaign, CampaignSpec
from .store import ReportStore

__all__ = ["ExperimentService", "ServiceThread", "start_in_thread"]

#: Largest accepted request body (a tagged CampaignSpec with fault
#: schedules is ~KBs; anything near this bound is not a spec).
MAX_BODY_BYTES = 32 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024
#: Seconds a client has to deliver its request line, headers and body;
#: past it the server answers 408 and closes, so a stalled client
#: cannot hold a connection open.
READ_DEADLINE_S = 30.0

#: Campaign states that stop a status stream.
SETTLED = ("completed", "cancelled", "failed")

#: Least seconds between two progress lines of one status stream; a
#: settle ends the pause early, so the settled line is never held.
STREAM_INTERVAL_S = 0.05

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class _Refusal(Exception):
    """A request problem with its HTTP status attached."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _CampaignRecord:
    """One submitted campaign: the engine object plus loop-side state."""

    def __init__(self, ident: str, campaign: Campaign) -> None:
        self.id = ident
        self.campaign = campaign
        self.updated = asyncio.Event()
        self.settled = asyncio.Event()
        #: A wake-up is scheduled and no stream has read the status
        #: since; further landed jobs schedule none.
        self.wake_pending = False
        self.error: str | None = None

    def status(self) -> dict[str, Any]:
        status = self.campaign.status()
        status["id"] = self.id
        if self.error is not None:
            status["error"] = self.error
        return status


class ExperimentService:
    """The hosted campaign server over one report store.

    Parameters
    ----------
    reports:
        The :class:`~repro.service.store.ReportStore` (or its
        directory) every campaign dedupes against.
    corpus:
        The :class:`~repro.corpus.store.CorpusStore` (or directory)
        that resolves submitted graph digests; ``None`` restricts
        submissions to explicit entry-directory paths.
    host, port:
        Bind address; port 0 picks a free port (read :attr:`port`
        after :meth:`start`).
    workers:
        Process-pool width each campaign fans out to (1 = in-process
        serial, the coverage-friendly default).
    campaign_slots:
        Campaigns executing concurrently; further submissions queue.
    """

    def __init__(
        self,
        reports: "ReportStore | str",
        corpus: "CorpusStore | str | None" = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        campaign_slots: int = 2,
    ) -> None:
        self.reports = (
            reports if isinstance(reports, ReportStore)
            else ReportStore(reports)
        )
        self.corpus = (
            corpus if corpus is None or isinstance(corpus, CorpusStore)
            else CorpusStore(corpus)
        )
        self.host = host
        self.port = port
        self.workers = workers
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=campaign_slots,
            thread_name_prefix="repro-campaign",
        )
        self._records: dict[str, _CampaignRecord] = {}
        self._by_spec: dict[str, _CampaignRecord] = {}
        self._seq = 0
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> "ExperimentService":
        """Bind and listen; resolves :attr:`port` when it was 0."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """Serve until cancelled (starting first if needed)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop listening, cancel running campaigns, drain the pool.

        The server is dropped: its protocol factory holds this service,
        so keeping it would leave every campaign, job key and mapped
        graph of a stopped service to the cyclic garbage collector.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for record in self._records.values():
            record.campaign.cancel()
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self._executor.shutdown(wait=True)
        )

    # -- request plumbing ---------------------------------------------

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                try:
                    method, path, body = await asyncio.wait_for(
                        self._read_request(reader), READ_DEADLINE_S
                    )
                except asyncio.TimeoutError:
                    raise _Refusal(
                        408,
                        f"request not received within the "
                        f"{READ_DEADLINE_S:g} s read deadline",
                    ) from None
                await self._route(method, path, body, writer)
            except _Refusal as exc:
                await self._respond_error(writer, exc.status, str(exc))
            except ProtocolError as exc:
                await self._respond_error(writer, 400, str(exc))
            except Exception as exc:  # pragma: no cover - defensive
                await self._respond_error(
                    writer, 500, f"{type(exc).__name__}: {exc}"
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _Refusal(413, "request headers exceed the size bound")
        if len(head) > MAX_HEADER_BYTES:
            raise _Refusal(413, "request headers exceed the size bound")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _Refusal(400, f"malformed request line: {lines[0]!r}")
        method, target, _version = parts
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            raise _Refusal(
                400,
                f"malformed Content-Length header: {raw_length!r}",
            )
        if length > MAX_BODY_BYTES:
            raise _Refusal(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte bound",
            )
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method.upper(), path, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
    ) -> None:
        body = (json.dumps(payload) + "\n").encode()
        writer.write(
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Status')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body
        )
        await writer.drain()

    async def _respond_error(
        self, writer: asyncio.StreamWriter, status: int, message: str
    ) -> None:
        await self._respond(
            writer,
            status,
            {"error": {"type": "ProtocolError", "message": message}},
        )

    # -- routing ------------------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        parts = [p for p in path.split("/") if p]
        if parts == ["health"] and method == "GET":
            await self._respond(writer, 200, self._health())
        elif parts == ["campaigns"] and method == "POST":
            status, payload = self._submit(body)
            await self._respond(writer, status, payload)
        elif parts == ["campaigns"] and method == "GET":
            await self._respond(
                writer,
                200,
                {
                    "campaigns": [
                        record.status()
                        for record in self._records.values()
                    ]
                },
            )
        elif len(parts) == 2 and parts[0] == "campaigns" \
                and method == "GET":
            await self._respond(writer, 200, self._record(parts[1]).status())
        elif len(parts) == 3 and parts[0] == "campaigns" \
                and parts[2] == "jobs" and method == "GET":
            record = self._record(parts[1])
            await self._respond(
                writer, 200, {"jobs": record.campaign.job_index()}
            )
        elif len(parts) == 3 and parts[0] == "campaigns" \
                and parts[2] == "stream" and method == "GET":
            await self._stream(self._record(parts[1]), writer)
        elif len(parts) == 3 and parts[0] == "campaigns" \
                and parts[2] == "cancel" and method == "POST":
            record = self._record(parts[1])
            record.campaign.cancel()
            await self._respond(writer, 200, record.status())
        elif len(parts) == 2 and parts[0] == "reports" \
                and method == "GET":
            document = self.reports.get_document(parts[1])
            if document is None:
                raise _Refusal(
                    404, f"no stored report with digest {parts[1]!r}"
                )
            await self._respond(writer, 200, document)
        elif parts and parts[0] in ("health", "campaigns", "reports"):
            raise _Refusal(
                405, f"{method} is not supported on /{'/'.join(parts)}"
            )
        else:
            raise _Refusal(404, f"no such endpoint: {path!r}")

    # -- endpoint bodies ----------------------------------------------

    def _health(self) -> dict[str, Any]:
        return {
            "ok": True,
            "store": self.reports.stats(),
            "campaigns": len(self._records),
            "workers": self.workers,
        }

    def _record(self, ident: str) -> _CampaignRecord:
        record = self._records.get(ident)
        if record is None:
            raise _Refusal(404, f"no campaign with id {ident!r}")
        return record

    def _submit(self, body: bytes) -> tuple[int, dict[str, Any]]:
        if not body:
            raise _Refusal(
                400, "campaign submission needs a JSON body "
                "(a CampaignSpec document)"
            )
        spec = CampaignSpec.from_json(body)
        spec_digest = hashlib.sha256(
            spec.to_json().encode()
        ).hexdigest()[:16]
        existing = self._by_spec.get(spec_digest)
        if existing is not None and existing.campaign.state in (
            "pending", "running",
        ):
            # The identical spec is already in flight: attach to it
            # rather than racing a duplicate execution of every job.
            payload = existing.status()
            payload["deduplicated"] = True
            return 200, payload
        campaign = Campaign(
            spec,
            self.reports,
            corpus=self.corpus,
            workers=self.workers,
            keep_reports=False,
        )
        self._seq += 1
        record = _CampaignRecord(f"c{self._seq:06x}", campaign)
        self._records[record.id] = record
        self._by_spec[spec_digest] = record
        assert self._loop is not None
        loop = self._loop

        def notify() -> None:
            # Unlocked: racing a stream's re-arm costs at most one
            # extra wake-up, never a lost one (the stream re-arms
            # before it reads the status).
            if not record.wake_pending:
                record.wake_pending = True
                loop.call_soon_threadsafe(record.updated.set)

        def settle() -> None:
            record.settled.set()
            record.updated.set()

        def drive() -> None:
            try:
                campaign.run(on_update=notify)
            except ProtocolError as exc:
                record.error = str(exc)
            except Exception as exc:  # pragma: no cover - defensive
                record.error = f"{type(exc).__name__}: {exc}"
            finally:
                loop.call_soon_threadsafe(settle)

        self._executor.submit(drive)
        return 202, record.status()

    async def _stream(
        self, record: _CampaignRecord, writer: asyncio.StreamWriter
    ) -> None:
        """Chunked NDJSON: one status line per change, until settled.

        Lines are at least :data:`STREAM_INTERVAL_S` apart, except the
        settled one: a settle cuts the pause short.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        last: tuple | None = None
        while True:
            # Re-arm the wake-up before reading, so a job landing after
            # this read wakes the next one.
            record.wake_pending = False
            record.updated.clear()
            status = record.status()
            fingerprint = (
                status["state"],
                status["completed"],
                status["failed"],
                status.get("error"),
            )
            if fingerprint != last:
                last = fingerprint
                line = (json.dumps(status) + "\n").encode()
                writer.write(
                    f"{len(line):x}\r\n".encode() + line + b"\r\n"
                )
                await writer.drain()
            if status["state"] in SETTLED or status.get("error"):
                break
            await _wait(record.settled, STREAM_INTERVAL_S)
            await _wait(record.updated, 0.25)
        writer.write(b"0\r\n\r\n")
        await writer.drain()


async def _wait(event: asyncio.Event, timeout: float) -> None:
    """Wait until ``event`` is set or ``timeout`` seconds pass."""
    try:
        await asyncio.wait_for(event.wait(), timeout)
    except asyncio.TimeoutError:
        pass


class ServiceThread:
    """A running service on a daemon thread (tests, benchmarks, CLI).

    ``with start_in_thread(...) as handle:`` yields a handle whose
    :attr:`port` is live; :meth:`stop` tears the loop down and joins.
    """

    def __init__(self, service: ExperimentService) -> None:
        self.service = service
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._failure: BaseException | None = None
        self._thread = threading.Thread(
            target=self._main, name="repro-service", daemon=True
        )

    @property
    def port(self) -> int:
        return self.service.port

    def _main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # pragma: no cover - defensive
            self._failure = exc
            self._ready.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.service.start()
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await self.service.stop()

    def start(self) -> "ServiceThread":
        """Start the thread and block until the socket is bound."""
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._failure is not None:
            raise ProtocolError(
                f"service failed to start: {self._failure}"
            )
        if not self._ready.is_set():
            raise ProtocolError("service did not start within 30s")
        return self

    def stop(self) -> None:
        """Signal the loop to shut down and join the thread."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServiceThread":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def start_in_thread(
    reports: "ReportStore | str",
    corpus: "CorpusStore | str | None" = None,
    **kwargs: Any,
) -> ServiceThread:
    """Boot an :class:`ExperimentService` on a daemon thread and wait
    until its port is live. Keyword arguments pass through to the
    service constructor."""
    service = ExperimentService(reports, corpus, **kwargs)
    return ServiceThread(service).start()
