"""``repro serve`` — run the always-on solver service from the CLI.

Three modes off one flag set:

``repro serve``
    Bind the HTTP transport and run until SIGTERM/SIGINT, then drain
    gracefully (finish in-flight solves, refuse new ones with 503, shut
    the worker pool down) — the deployment shape.
``repro serve --stdio``
    Speak JSON lines on stdin/stdout instead — the embedding shape
    (drive the service as a subprocess without opening a port).  EOF on
    stdin, SIGTERM or SIGINT drains and exits.
``repro serve --demo``
    Start on an ephemeral port, fire a few identical concurrent requests
    at itself over real HTTP, print what came back (including how many
    coalesced), and exit — a self-contained smoke test the docs and CI
    run verbatim.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import sys
import urllib.request

from ..runtime.cache import ResultCache
from .server import SolverService, stdio_streams

__all__ = ["add_serve_parser", "cmd_serve"]


def _build_service(args) -> SolverService:
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return SolverService(
        workers=args.workers,
        job_timeout=args.job_timeout,
        retries=args.retries,
        cache=cache,
        store=args.store_dir,  # None -> REPRO_GRAPH_STORE, else private
        max_inflight=args.max_inflight,
        request_timeout=args.request_timeout,
    )


def _on_signals(callback) -> None:
    """Run ``callback`` on SIGTERM / SIGINT.

    Install it after ``service.start()`` has forked the worker pool, so the
    workers keep the default disposition, and before the service is
    announced, so a signal sent on the ready line already drains.
    """
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, callback)


async def _serve_http(args) -> int:
    service = _build_service(args)
    await service.start()
    stop = asyncio.Event()
    _on_signals(stop.set)
    server = await service.start_http(args.host, args.port)
    port = server.sockets[0].getsockname()[1]
    print(
        f"repro serve: http://{args.host}:{port} "
        f"(workers={args.workers}, max_inflight={service.max_inflight}, "
        f"solvers={len(service.solvers())})",
        flush=True,
    )
    await stop.wait()
    print("repro serve: draining ...", flush=True)
    server.close()
    await server.wait_closed()
    completed = await service.drain(args.drain_timeout)
    print(
        f"repro serve: drained ({'clean' if completed else 'timed out'}); "
        f"{service.requests} requests served, {service.rejected} rejected",
        flush=True,
    )
    return 0 if completed else 1


async def _serve_stdio(args) -> int:
    service = _build_service(args)
    await service.start()
    reader, writer = await stdio_streams()
    # A signal ends the read loop the way EOF on stdin does: the service
    # answers what it admitted, then drains.
    _on_signals(reader.feed_eof)
    await service.serve_stdio(reader, writer, drain_timeout=args.drain_timeout)
    return 0


def _demo_request() -> dict:
    return {
        "problem": "mis",
        "model": "cclique",
        "source": {
            "kind": "generator",
            "name": "gnp_random_graph",
            "args": {"n": 200, "p": 0.04, "seed": 0},
        },
    }


async def _serve_demo(args) -> int:
    service = _build_service(args)
    await service.start()
    server = await service.start_http("127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    base = f"http://127.0.0.1:{port}"
    loop = asyncio.get_running_loop()

    def post(body: dict) -> dict:
        req = urllib.request.Request(
            f"{base}/solve",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(req) as resp:
            return json.loads(resp.read())

    def get(path: str) -> str:
        with urllib.request.urlopen(base + path) as resp:
            return resp.read().decode()

    print(f"repro serve --demo on {base}")
    replies = await asyncio.gather(
        *(loop.run_in_executor(None, post, _demo_request()) for _ in range(4))
    )
    solved = [r for r in replies if r["ok"]]
    coalesced = sum(1 for r in replies if r["coalesced"])
    size = solved[0]["result"]["solution_size"] if solved else None
    print(
        f"  4 identical concurrent requests -> {len(solved)} ok, "
        f"{coalesced} coalesced onto the leader's solve, |I| = {size}"
    )
    health = json.loads(await loop.run_in_executor(None, get, "/healthz"))
    print(f"  /healthz: {health['state']}, coalesce {health['coalesce']}")
    metrics = await loop.run_in_executor(None, get, "/metrics")
    served = [ln for ln in metrics.splitlines() if ln.startswith("serve_requests ")]
    print(f"  /metrics: {served[0] if served else 'serve_requests missing!'}")
    server.close()
    await server.wait_closed()
    await service.drain(args.drain_timeout)
    print("  drained cleanly")
    return 0 if len(solved) == 4 and coalesced >= 1 else 1


def cmd_serve(args) -> int:
    if args.stdio and args.demo:
        print("error: --stdio and --demo are mutually exclusive", file=sys.stderr)
        return 2
    runner = _serve_stdio if args.stdio else _serve_demo if args.demo else _serve_http
    with contextlib.suppress(KeyboardInterrupt):
        return asyncio.run(runner(args))
    return 0


def add_serve_parser(sub) -> None:
    """Register the ``serve`` subcommand on a subparsers object."""
    import os

    p = sub.add_parser(
        "serve",
        help="run the always-on solver service (HTTP or stdio JSON lines)",
    )
    p.add_argument("--host", type=str, default="127.0.0.1")
    p.add_argument("--port", type=int, default=8750,
                   help="HTTP port (0 picks a free one; default 8750)")
    p.add_argument("--stdio", action="store_true",
                   help="serve JSON lines on stdin/stdout instead of HTTP")
    p.add_argument("--demo", action="store_true",
                   help="start, self-request over HTTP, print, and exit")
    p.add_argument("--workers", type=int, default=1,
                   help="solver worker processes (default 1)")
    p.add_argument("--job-timeout", type=float, default=None,
                   help="per-job wall-clock budget in seconds (worker-side)")
    p.add_argument("--retries", type=int, default=0,
                   help="extra attempts per failing job")
    p.add_argument("--cache-dir", type=str,
                   default=os.environ.get("REPRO_CACHE_DIR", ".repro-cache"),
                   help="result cache directory (REPRO_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache")
    p.add_argument("--store-dir", type=str, default=None,
                   help="out-of-core graph store directory (default: "
                        "REPRO_GRAPH_STORE if set, else a temporary store "
                        "removed on drain)")
    p.add_argument("--max-inflight", type=int, default=64,
                   help="admission bound before 503 (default 64)")
    p.add_argument("--request-timeout", type=float, default=None,
                   help="default per-request budget in seconds (504 past it)")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="graceful-drain budget in seconds (default 30)")
    p.set_defaults(fn=cmd_serve)
