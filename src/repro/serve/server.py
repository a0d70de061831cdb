"""The always-on solver service: asyncio front door over the registry.

One :class:`SolverService` owns the whole request path::

    transport (HTTP / stdio JSON-lines)
      -> admission control   (bounded in-flight requests; 503 + Retry-After)
      -> coalescer           (in-flight dedup by source x solve digest)
      -> Scheduler.run       (one call per leader, on the service's threads)
      -> process pool        (persistent workers; cache-first, store-aware)

Every solver the :data:`repro.api.REGISTRY` knows is remotely callable by
its ``(problem, model)`` pair with zero per-solver service code — the wire
body is a :class:`~repro.api.SolveRequest`, and the runtime already
dispatches those through the facade.

Observability is first-class: each request runs under a ``serve.request``
root span, the service increments ``serve.*`` counters / gauges /
histograms in :data:`repro.obs.METRICS`, and the HTTP side exposes
``/healthz`` (liveness + state) and ``/metrics`` (Prometheus text).

Shutdown is graceful by contract: :meth:`SolverService.drain` flips the
service to *draining* (new solves are refused with 503), waits for every
in-flight request and every leader's solve to complete, and closes the
persistent worker pool.  The CLI wires SIGTERM/SIGINT to exactly that.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
import zipfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

from ..api.registry import REGISTRY
from ..obs import trace as _obs
from ..obs.metrics import METRICS
from ..runtime.cache import ResultCache
from ..runtime.scheduler import JobResult, Scheduler
from .coalesce import Coalescer
from .protocol import (
    ProtocolError,
    ServeJob,
    coalesce_key,
    error_payload,
    parse_solve,
    solve_payload,
)

__all__ = ["SolverService", "stdio_streams"]

#: Largest accepted HTTP body / stdio line (a request is tiny; anything
#: bigger is a client bug or abuse).
MAX_BODY_BYTES = 1 << 20

#: Reading one request (header + body) must finish within this budget so a
#: stalled client cannot pin a connection handler forever.
READ_TIMEOUT_S = 30.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class SolverService:
    """Coalescing, backpressured front door to the registry.

    Parameters
    ----------
    workers / job_timeout / retries / cache / store:
        Forwarded to the owned :class:`~repro.runtime.scheduler.Scheduler`
        (created ``persistent=True`` so every request reuses one worker
        pool).  Pass a ready ``scheduler=`` instead to control everything.
    max_inflight:
        Admission bound: requests admitted and not yet answered.  At the
        bound, new solves are refused immediately with 503 and a
        ``Retry-After`` hint — loaded services must say no fast, not
        queue without bound.  It also sizes the thread pool each
        coalesced leader runs ``Scheduler.run`` on: there are never more
        leaders than admitted requests, so no leader waits for a thread.
    request_timeout:
        Default per-request wall budget (a request may lower/raise its
        own via ``timeout``); ``None`` = wait as long as the job takes.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        job_timeout: float | None = None,
        retries: int = 0,
        cache: ResultCache | str | None = None,
        store=None,
        scheduler: Scheduler | None = None,
        max_inflight: int = 64,
        request_timeout: float | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if isinstance(cache, (str,)) or hasattr(cache, "__fspath__"):
            cache = ResultCache(cache)
        if scheduler is None:
            scheduler = Scheduler(
                workers=workers,
                timeout=job_timeout,
                retries=retries,
                cache=cache,
                store=store,
                persistent=True,
            )
        self.scheduler = scheduler
        self.cache = scheduler.cache
        self.coalescer = Coalescer()
        # A dedicated executor, never the loop's default: solves must not
        # queue behind whatever the embedding application runs there
        # (starving the solve path deadlocks every waiter).
        self.executor = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="repro-serve-solve"
        )
        self.max_inflight = max_inflight
        self.request_timeout = request_timeout
        self._active = 0
        self._leaders: set[asyncio.Task] = set()
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._started_at = time.time()
        self.requests = 0
        self.rejected = 0
        self.timeouts = 0
        self.protocol_errors = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Pre-fork the persistent worker pool."""
        # Fork workers now, from a thread-light process, rather than on the
        # first request (when executor threads exist and latency matters).
        await asyncio.get_running_loop().run_in_executor(
            self.executor, self.scheduler.warm_up
        )

    @property
    def active(self) -> int:
        """Requests admitted and not yet answered."""
        return self._active

    async def drain(self, timeout: float | None = None) -> bool:
        """Refuse new solves, finish in-flight ones, release the pool.

        Waits for every admitted request and every leader's solve — also
        one whose requester already got a 504, since that solve still
        fills the cache.  Returns ``True`` when everything completed
        inside ``timeout`` (``None`` = wait indefinitely); on ``False``
        the pool is still shut down, abandoning whatever was left.
        """
        self._draining = True
        completed = True
        try:
            await asyncio.wait_for(self._settle(), timeout)
        except asyncio.TimeoutError:
            completed = False
        self.executor.shutdown(wait=completed, cancel_futures=not completed)
        # Every leader is done by now (or abandoned), so the synchronous
        # shutdown is a quick process join — not worth a thread hop on a
        # path where the loop is about to stop anyway.
        self.scheduler.close()
        return completed

    async def _settle(self) -> None:
        # Draining admits nothing, so once idle no new leader can start.
        await self._idle.wait()
        if self._leaders:
            await asyncio.wait(self._leaders)

    # ------------------------------------------------------------------ #
    # Introspection payloads
    # ------------------------------------------------------------------ #

    def healthz(self) -> dict:
        return {
            "ok": not self._draining,
            "state": "draining" if self._draining else "serving",
            "active": self._active,
            "max_inflight": self.max_inflight,
            "inflight_solves": self.coalescer.inflight(),
            "uptime_s": time.time() - self._started_at,
            "workers": self.scheduler.workers,
            "solvers": len(REGISTRY.entries()),
            "requests": self.requests,
            "rejected": self.rejected,
            "coalesce": self.coalescer.stats.to_dict(),
        }

    def metrics_text(self) -> str:
        METRICS.gauge("serve.queue_depth", self._active)
        METRICS.gauge("serve.inflight_solves", self.coalescer.inflight())
        return METRICS.to_prometheus()

    def solvers(self) -> list[dict]:
        """Every registry entry: the ``(problem, model)`` pairs the wire
        accepts."""
        return [
            {
                "problem": e.problem,
                "model": e.model,
                "capabilities": e.capabilities.flags(),
                "description": e.description,
            }
            for e in REGISTRY.entries()
        ]

    # ------------------------------------------------------------------ #
    # The request path (transport-agnostic)
    # ------------------------------------------------------------------ #

    async def handle(self, obj: object) -> tuple[int, dict]:
        """One wire object in, ``(http_status, response_payload)`` out."""
        op = obj.get("op", "solve") if isinstance(obj, dict) else "solve"
        if op in ("ping", "health"):
            health = self.healthz()
            return (200 if health["ok"] else 503), health
        if op == "solvers":
            return 200, {"ok": True, "solvers": self.solvers()}
        if op == "solve":
            return await self._solve(obj)
        self.protocol_errors += 1
        return 400, error_payload(400, "ProtocolError", f"unknown op {op!r}")

    async def _solve(self, obj: object) -> tuple[int, dict]:
        self.requests += 1
        METRICS.inc("serve.requests")
        request_id = obj.get("id") if isinstance(obj, dict) else None
        if self._draining:
            self.rejected += 1
            METRICS.inc("serve.rejected")
            return 503, error_payload(
                503, "Draining", "service is draining", request_id=request_id
            )
        if self._active >= self.max_inflight:
            self.rejected += 1
            METRICS.inc("serve.rejected")
            return 503, error_payload(
                503,
                "QueueFull",
                f"at the {self.max_inflight}-request admission bound",
                request_id=request_id,
                retry_after_s=1,
            )
        try:
            job = parse_solve(obj)
            if job.include_solution and self.cache is None:
                # Solutions are read back from the cache entry the solve wrote.
                raise ProtocolError(
                    "'include_solution' needs the result cache, and this "
                    "service runs without one (--no-cache)"
                )
        except ProtocolError as exc:
            self.protocol_errors += 1
            METRICS.inc("serve.protocol_errors")
            return exc.code, error_payload(
                exc.code, "ProtocolError", str(exc), request_id=request_id
            )
        self._active += 1
        self._idle.clear()
        METRICS.gauge("serve.queue_depth", self._active)
        t0 = time.perf_counter()
        try:
            # Each request is its own root trace: ensure_buffer gives the
            # span somewhere to land (and flushes to the REPRO_TRACE JSONL
            # destination, when one is named) without touching an ambient
            # buffer some embedding caller may hold in *its* context.
            buf_ctx = _obs.ensure_buffer() if _obs.is_tracing() else nullcontext()
            with buf_ctx, _obs.span(
                "serve.request",
                problem=job.spec.problem,
                model=job.spec.model,
                source=job.spec.source.label(),
            ) as sp:
                code, payload = await self._solve_admitted(job)
                if sp is not None:
                    sp.set(code=code, coalesced=bool(payload.get("coalesced")))
            return code, payload
        finally:
            self._active -= 1
            METRICS.gauge("serve.queue_depth", self._active)
            METRICS.observe("serve.latency_s", time.perf_counter() - t0)
            if self._active == 0:
                self._idle.set()

    async def _solve_admitted(self, job: ServeJob) -> tuple[int, dict]:
        key = coalesce_key(job.spec)
        fut, leader = self.coalescer.admit(key)
        if leader:
            task = asyncio.get_running_loop().create_task(
                self._lead(key, job, fut), name=f"repro-serve-lead-{key[:8]}"
            )
            self._leaders.add(task)
            task.add_done_callback(self._leaders.discard)
        else:
            METRICS.inc("serve.coalesced")
        timeout = job.timeout if job.timeout is not None else self.request_timeout
        try:
            result: JobResult = await asyncio.wait_for(
                asyncio.shield(fut), timeout
            )
        except asyncio.TimeoutError:
            self.timeouts += 1
            METRICS.inc("serve.request_timeouts")
            return 504, error_payload(
                504,
                "RequestTimeout",
                f"request exceeded its {timeout}s budget (the solve may "
                f"still complete and populate the cache)",
                request_id=job.request_id,
            )
        except Exception as exc:  # noqa: BLE001 - scheduler plumbing
            METRICS.inc("serve.internal_errors")
            return 500, error_payload(
                500, type(exc).__name__, str(exc), request_id=job.request_id
            )
        solution = None
        if job.include_solution:
            solution = self._load_solution(job, result)
        return 200, solve_payload(
            result,
            coalesced=not leader,
            request_id=job.request_id,
            solution=solution,
        )

    async def _lead(self, key: str, job: ServeJob, fut: asyncio.Future) -> None:
        try:
            batch = await asyncio.get_running_loop().run_in_executor(
                self.executor, self.scheduler.run, [job.spec]
            )
            if not fut.done():
                fut.set_result(batch.results[0])
        except Exception as exc:  # noqa: BLE001 - propagate to all waiters
            if not fut.done():
                fut.set_exception(exc)
        finally:
            self.coalescer.finish(key)

    def _load_solution(self, job: ServeJob, result: JobResult) -> list | None:
        """Solution array for ``include_solution`` requests (cache-backed);
        ``None`` when the entry is gone or its npz is unreadable (a torn
        write), as for any missing entry.  An unreadable entry is
        discarded, so the next request solves and stores it afresh."""
        if not result.ok or not result.fingerprint:
            return None
        key = job.spec.cache_key(result.fingerprint)
        entry = self.cache.get(key)
        if entry is None:
            return None
        try:
            return entry.arrays()["solution"].tolist()
        except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile, zlib.error):
            self.cache.discard(key)
            return None

    # ------------------------------------------------------------------ #
    # HTTP transport
    # ------------------------------------------------------------------ #

    async def start_http(
        self, host: str = "127.0.0.1", port: int = 8750
    ) -> asyncio.AbstractServer:
        """Bind the HTTP front (``port=0`` picks a free port)."""
        return await asyncio.start_server(self._handle_conn, host, port)

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, target, body = await asyncio.wait_for(
                    self._read_request(reader), READ_TIMEOUT_S
                )
            except _HttpError as exc:
                await self._respond_json(
                    writer,
                    exc.code,
                    error_payload(exc.code, "HttpError", str(exc)),
                )
                return
            except (asyncio.TimeoutError, asyncio.IncompleteReadError):
                return  # stalled or vanished client; nothing to answer
            code, body_bytes, ctype = await self._dispatch_http(
                method, target, body
            )
            await self._respond(writer, code, body_bytes, ctype)
        except (ConnectionError, asyncio.CancelledError):
            pass
        except Exception as exc:  # noqa: BLE001 - connection must not leak
            try:
                await self._respond_json(
                    writer,
                    500,
                    error_payload(500, type(exc).__name__, str(exc)),
                )
            except Exception:  # noqa: BLE001
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        line = await reader.readline()
        if not line:
            raise asyncio.IncompleteReadError(b"", None)
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise _HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        body = await reader.readexactly(length) if length else b""
        return method, target, body

    async def _dispatch_http(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, bytes, str]:
        target = target.split("?", 1)[0]
        if target == "/healthz" and method == "GET":
            health = self.healthz()
            return (
                200 if health["ok"] else 503,
                _json_bytes(health),
                "application/json",
            )
        if target == "/metrics" and method == "GET":
            return 200, self.metrics_text().encode(), "text/plain; version=0.0.4"
        if target == "/solvers" and method == "GET":
            return (
                200,
                _json_bytes({"ok": True, "solvers": self.solvers()}),
                "application/json",
            )
        if target == "/solve":
            if method != "POST":
                return (
                    405,
                    _json_bytes(
                        error_payload(405, "HttpError", "POST /solve only")
                    ),
                    "application/json",
                )
            try:
                obj = json.loads(body.decode() or "null")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                self.protocol_errors += 1
                return (
                    400,
                    _json_bytes(
                        error_payload(400, "ProtocolError", f"bad JSON: {exc}")
                    ),
                    "application/json",
                )
            code, payload = await self.handle(obj)
            return code, _json_bytes(payload), "application/json"
        return (
            404,
            _json_bytes(error_payload(404, "HttpError", f"no route {target}")),
            "application/json",
        )

    async def _respond_json(
        self, writer: asyncio.StreamWriter, code: int, payload: dict
    ) -> None:
        await self._respond(writer, code, _json_bytes(payload), "application/json")

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        code: int,
        body: bytes,
        content_type: str,
    ) -> None:
        reason = _REASONS.get(code, "OK")
        head = (
            f"HTTP/1.1 {code} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n"
        )
        if code == 503:
            head += "Retry-After: 1\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + body)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # stdio transport (JSON lines)
    # ------------------------------------------------------------------ #

    async def serve_stdio(
        self,
        reader: asyncio.StreamReader,
        writer,
        *,
        drain_timeout: float | None = None,
    ) -> None:
        """JSON-lines loop for embedding: one request per line, one
        response per line (correlate with ``id`` — responses may
        interleave, since each line is handled concurrently).  Every line
        that parses is answered: an exception from :meth:`handle` is a
        500 carrying the line's ``id``, as over HTTP.  EOF drains the
        service and returns.
        """
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()

        async def _write(payload: dict) -> None:
            data = _json_bytes(payload) + b"\n"
            async with write_lock:
                writer.write(data)
                await writer.drain()

        async def _one(obj: object) -> None:
            try:
                _, payload = await self.handle(obj)
            except Exception as exc:  # noqa: BLE001 - the line gets an answer
                request_id = obj.get("id") if isinstance(obj, dict) else None
                payload = error_payload(
                    500, type(exc).__name__, str(exc), request_id=request_id
                )
            await _write(payload)

        while True:
            line = await reader.readline()
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                self.protocol_errors += 1
                await _write(
                    error_payload(400, "ProtocolError", f"bad JSON line: {exc}")
                )
                continue
            task = asyncio.get_running_loop().create_task(_one(obj))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        await self.drain(drain_timeout)


class _HttpError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


class _StdinReader(asyncio.StreamReader):
    """Stdin as a stream.  Ending it early (``repro serve --stdio`` feeds
    EOF on SIGTERM / SIGINT) also stops reading the pipe, so input that
    arrives during the drain stays unread instead of being fed after EOF."""

    def set_transport(self, transport) -> None:
        super().set_transport(transport)
        self._pipe = transport

    def feed_eof(self) -> None:
        super().feed_eof()
        self._pipe.pause_reading()


async def stdio_streams() -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Wrap this process's stdin/stdout as asyncio streams (CLI plumbing)."""
    loop = asyncio.get_running_loop()
    reader = _StdinReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    transport, protocol = await loop.connect_write_pipe(
        asyncio.streams.FlowControlMixin, sys.stdout
    )
    writer = asyncio.StreamWriter(transport, protocol, reader, loop)
    return reader, writer
