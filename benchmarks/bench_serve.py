"""Serve-layer acceptance and overhead: coalescing, throughput, p95 latency.

Two cases against a *real* :class:`repro.serve.SolverService` (persistent
worker pool, result cache, live HTTP socket):

1. **coalesce** (hard acceptance, not baseline-relative): K identical
   concurrent ``POST /solve`` requests must all succeed while the
   scheduler executes **exactly one** job — the service runs on a
   scheduler that counts the jobs ``Scheduler.run`` receives, which
   followers never reach.  The contract is K >= 4 requests resolved by
   one solve.
2. **throughput** (gated vs baseline): with the cache warmed, a sustained
   burst of requests from concurrent clients measures the service
   overhead path — HTTP parse, admission, coalesce lookup, scheduler
   call, cache hit, response — as requests/second plus p95 latency.  The gate
   catches a serve-layer slowdown without re-measuring solver speed
   (solver regressions have their own benches).

Modes: ``--smoke`` (CI-sized) / default full; ``--check PATH`` gates
against a baseline; ``--write-baseline [PATH]`` refreshes it.
Artifacts: ``benchmarks/results/BENCH_serve.json``; baseline at
``benchmarks/baselines/BENCH_serve_baseline.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit_json  # noqa: E402

from repro.runtime import ResultCache, Scheduler  # noqa: E402
from repro.serve import SolverService  # noqa: E402

BASELINE_PATH = Path(__file__).parent / "baselines" / "BENCH_serve_baseline.json"

#: The ISSUE-level contract: at least this many identical concurrent
#: requests must come back from exactly one scheduler-executed solve.
COALESCE_FLOOR = 4

#: --check slack: shared CI runners wobble, so throughput may fall to
#: baseline / factor and p95 latency may rise to baseline * factor
#: before the gate trips.
THROUGHPUT_FACTOR = 3.0
LATENCY_FACTOR = 3.0


class CountingScheduler(Scheduler):
    """The service's persistent scheduler, counting the jobs ``run`` gets."""

    def __init__(self, **kw) -> None:
        super().__init__(persistent=True, **kw)
        self.batches: list[int] = []  # list.append is thread-safe

    @property
    def jobs(self) -> int:
        return sum(self.batches)

    def run(self, requests):
        self.batches.append(len(requests))
        return super().run(requests)


def _body(seed: int, n: int) -> dict:
    return {
        "problem": "mis",
        "model": "cclique",
        "source": {
            "kind": "generator",
            "name": "gnp_random_graph",
            "args": {"n": n, "p": 0.05, "seed": seed},
        },
    }


async def _post(host: str, port: int, body: dict) -> dict:
    """One ``POST /solve`` over a raw asyncio connection.

    Deliberately not urllib-in-a-thread: the default thread executor caps
    concurrency at ~5 on 1-core runners, which would silently serialize
    the "K identical concurrent requests" the coalesce case is about.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        data = json.dumps(body).encode()
        writer.write(
            (
                f"POST /solve HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n\r\n"
            ).encode()
            + data
        )
        await writer.drain()
        await reader.readline()  # status line; errors surface in the JSON
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return json.loads(await reader.readexactly(length))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _coalesce_case(
    svc: SolverService, host: str, port: int, k: int, n: int
) -> dict:
    jobs_before = svc.scheduler.jobs
    body = _body(seed=999, n=n)
    t0 = time.perf_counter()
    replies = await asyncio.gather(*(_post(host, port, body) for _ in range(k)))
    wall = time.perf_counter() - t0
    scheduler_jobs = svc.scheduler.jobs - jobs_before
    return {
        "requests": k,
        "ok": sum(1 for r in replies if r["ok"]),
        "scheduler_jobs": scheduler_jobs,
        "coalesced": sum(1 for r in replies if r["coalesced"]),
        "ratio": k / scheduler_jobs if scheduler_jobs else float("inf"),
        "wall_s": wall,
    }


async def _throughput_case(
    svc: SolverService, host: str, port: int, distinct: int, requests: int, n: int
) -> dict:
    bodies = [_body(seed=100 + i, n=n) for i in range(distinct)]
    for body in bodies:  # warm: one real solve per distinct request
        await _post(host, port, body)

    sem = asyncio.Semaphore(6)  # a realistic concurrent-client fan

    async def one(body: dict) -> float:
        async with sem:
            t0 = time.perf_counter()
            reply = await _post(host, port, body)
            assert reply["ok"], reply
            return time.perf_counter() - t0

    t0 = time.perf_counter()
    latencies = list(
        await asyncio.gather(
            *(one(bodies[i % distinct]) for i in range(requests))
        )
    )
    wall = time.perf_counter() - t0
    latencies.sort()
    p95 = latencies[max(0, int(0.95 * len(latencies)) - 1)]
    return {
        "distinct": distinct,
        "requests": requests,
        "wall_s": wall,
        "rps": requests / wall if wall > 0 else float("inf"),
        "p50_ms": latencies[len(latencies) // 2] * 1e3,
        "p95_ms": p95 * 1e3,
    }


async def _run_async(mode: str) -> dict:
    if mode == "smoke":
        k, n_coalesce = 6, 400
        distinct, requests, n_tp = 4, 60, 60
    else:
        k, n_coalesce = 8, 600
        distinct, requests, n_tp = 8, 240, 80
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        scheduler = CountingScheduler(workers=1, cache=ResultCache(tmp + "/cache"))
        svc = SolverService(scheduler=scheduler)
        await svc.start()
        server = await svc.start_http(port=0)
        host, port = "127.0.0.1", server.sockets[0].getsockname()[1]
        try:
            coalesce = await _coalesce_case(svc, host, port, k, n_coalesce)
            throughput = await _throughput_case(
                svc, host, port, distinct, requests, n_tp
            )
        finally:
            server.close()
            await server.wait_closed()
            await svc.drain(30)
    ok = (
        coalesce["ok"] == coalesce["requests"]
        and coalesce["scheduler_jobs"] == 1
        and coalesce["requests"] >= COALESCE_FLOOR
    )
    return {
        "mode": mode,
        "coalesce_floor": COALESCE_FLOOR,
        "acceptance_ok": bool(ok),
        "cases": {"coalesce": coalesce, "throughput": throughput},
    }


def run(mode: str) -> dict:
    return asyncio.run(_run_async(mode))


def check_regression(payload: dict, baseline_path: Path) -> list[str]:
    """Gate failures (empty = green): contracts + drift vs baseline."""
    problems = []
    coalesce = payload["cases"]["coalesce"]
    throughput = payload["cases"]["throughput"]
    if coalesce["ok"] != coalesce["requests"]:
        problems.append(
            f"coalesce: only {coalesce['ok']}/{coalesce['requests']} requests ok"
        )
    if coalesce["scheduler_jobs"] != 1:
        problems.append(
            f"coalesce: {coalesce['requests']} identical concurrent requests "
            f"ran {coalesce['scheduler_jobs']} scheduler jobs (contract: exactly 1)"
        )
    try:
        baseline = json.loads(baseline_path.read_text())
    except OSError as exc:
        problems.append(f"baseline {baseline_path} unreadable: {exc}")
        return problems
    except json.JSONDecodeError as exc:
        problems.append(f"baseline {baseline_path} is not valid JSON: {exc}")
        return problems
    if baseline.get("mode") != payload["mode"]:
        problems.append(
            f"baseline was recorded in {baseline.get('mode')!r} mode but this "
            f"run is {payload['mode']!r}; refresh with --write-baseline"
        )
        return problems
    base_tp = baseline["cases"]["throughput"]
    floor = base_tp["rps"] / THROUGHPUT_FACTOR
    if throughput["rps"] < floor:
        problems.append(
            f"throughput: {throughput['rps']:.1f} req/s fell below "
            f"{floor:.1f} (baseline {base_tp['rps']:.1f} / {THROUGHPUT_FACTOR:g})"
        )
    ceiling = base_tp["p95_ms"] * LATENCY_FACTOR
    if throughput["p95_ms"] > ceiling:
        problems.append(
            f"throughput: p95 {throughput['p95_ms']:.1f} ms rose above "
            f"{ceiling:.1f} ms (baseline {base_tp['p95_ms']:.1f} "
            f"* {LATENCY_FACTOR:g})"
        )
    return problems


def write_baseline(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tp = payload["cases"]["throughput"]
    slim = {
        "mode": payload["mode"],
        "cases": {
            "throughput": {
                "rps": round(tp["rps"], 1),
                "p95_ms": round(tp["p95_ms"], 2),
            }
        },
    }
    path.write_text(json.dumps(slim, indent=2, sort_keys=True) + "\n")
    print(f"[baseline] wrote {path}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true", help="small CI-sized run")
    ap.add_argument(
        "--check", metavar="PATH", help="regression-gate against a baseline JSON"
    )
    ap.add_argument(
        "--write-baseline",
        nargs="?",
        const=str(BASELINE_PATH),
        metavar="PATH",
        help="write this run's throughput numbers as the new baseline",
    )
    args = ap.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    payload = run(mode)
    coalesce = payload["cases"]["coalesce"]
    throughput = payload["cases"]["throughput"]

    print(f"serve benchmark [{mode}]")
    print(
        f"  coalesce    {coalesce['requests']} identical concurrent -> "
        f"{coalesce['scheduler_jobs']} scheduler job(s), "
        f"{coalesce['coalesced']} coalesced, ratio {coalesce['ratio']:.1f}x, "
        f"{coalesce['wall_s']:.2f}s"
    )
    print(
        f"  throughput  {throughput['requests']} reqs over "
        f"{throughput['distinct']} warm keys: {throughput['rps']:.1f} req/s, "
        f"p50 {throughput['p50_ms']:.1f} ms, p95 {throughput['p95_ms']:.1f} ms"
    )
    verdict = "PASS" if payload["acceptance_ok"] else "FAIL"
    print(
        f"acceptance: >= {COALESCE_FLOOR} identical concurrent requests "
        f"resolved by exactly 1 solve: {verdict}"
    )
    emit_json("serve", payload)

    if args.write_baseline:
        write_baseline(Path(args.write_baseline), payload)

    if args.check:
        problems = check_regression(payload, Path(args.check))
        if problems:
            for p in problems:
                print(f"REGRESSION: {p}", file=sys.stderr)
            return 1
        print("regression gate: green")
        return 0
    return 0 if payload["acceptance_ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
