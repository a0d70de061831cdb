"""repro.serve: coalescing, per-request solves, backpressure, drain, transports.

The service-logic tests run against a fake scheduler (deterministic, no
process pool) so they can assert scheduler-level facts — "K identical
concurrent requests produced exactly one scheduler job" — without timing
flakiness.  Two end-to-end tests then run the real thing: one over HTTP
against a live ``asyncio.start_server`` socket, one over the stdio
JSON-lines transport in a subprocess.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.api import SolveRequest
from repro.graphs import GraphSource
from repro.obs.metrics import METRICS
from repro.runtime.scheduler import BatchResult, BatchStats, JobResult
from repro.serve import (
    Coalescer,
    ProtocolError,
    SolverService,
    coalesce_key,
    parse_solve,
)

from test_runtime_spec import subprocess_env


def solve_body(seed: int = 0, n: int = 40, **extra) -> dict:
    body = {
        "problem": "mis",
        "model": "cclique",
        "source": {
            "kind": "generator",
            "name": "gnp_random_graph",
            "args": {"n": n, "p": 0.1, "seed": seed},
        },
    }
    body.update(extra)
    return body


class FakeScheduler:
    """Scheduler stand-in: records every batch, sleeps, answers ok.

    ``delay`` is seconds per batch, or a map from a source's generator
    seed to its seconds.  ``events`` logs each run's start and end and the
    close, in order.
    """

    def __init__(self, delay: float | dict = 0.05, fail: bool = False) -> None:
        self.workers = 1
        self.cache = None
        self.persistent = True
        self.delay = delay
        self.fail = fail
        self.calls: list[list[SolveRequest]] = []
        self.events: list[str] = []
        self.closed = False

    def warm_up(self) -> None:
        pass

    def close(self) -> None:
        self.events.append("close")
        self.closed = True

    def seconds(self, spec: SolveRequest) -> float:
        if isinstance(self.delay, dict):
            return self.delay[dict(spec.source.args)["seed"]]
        return self.delay

    def run(self, specs: list[SolveRequest]) -> BatchResult:
        self.calls.append(list(specs))
        self.events.append("run")
        time.sleep(max(self.seconds(s) for s in specs))
        self.events.append("ran")
        if self.fail:
            raise RuntimeError("scheduler exploded")
        results = [
            JobResult(
                spec=s,
                status="ok",
                solution_size=7,
                fingerprint="f" * 64,
                graph_n=40,
                graph_m=80,
            )
            for s in specs
        ]
        return BatchResult(
            results=results, stats=BatchStats(total=len(specs), ok=len(specs))
        )

    @property
    def jobs_run(self) -> int:
        return sum(len(batch) for batch in self.calls)


def make_service(sched: FakeScheduler, **kw) -> SolverService:
    return SolverService(scheduler=sched, **kw)


def run_async(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------- #
# Protocol
# ---------------------------------------------------------------------- #


def test_parse_solve_round_trip():
    job = parse_solve(solve_body(seed=3, timeout=2.5, id="r-1"))
    assert (job.spec.problem, job.spec.model) == ("mis", "cclique")
    assert job.spec.source.name == "gnp_random_graph"
    # model defaults to "simulated"; null stands for a field's default
    body = dict(solve_body(), model=None, force=None)
    assert parse_solve(body).spec.model == "simulated"
    del body["model"]
    assert parse_solve(body).spec.model == "simulated"
    assert job.timeout == 2.5
    assert job.request_id == "r-1"
    assert not job.include_solution


@pytest.mark.parametrize(
    "body",
    [
        {"problem": "mis"},  # no source
        solve_body(typo=1),  # unknown key
        solve_body(timeout=-1),  # bad timeout
        dict(solve_body(), model="no-such-model"),
        "not an object",
        {"problem": "", "source": {}},
    ],
)
def test_parse_solve_rejects(body):
    with pytest.raises(ProtocolError):
        parse_solve(body)


def test_unknown_overrides_keys_are_400_naming_them():
    """An ``overrides`` key that is not a Params field (or is ``eps``, which
    has its own key) fails at parse time, before any graph is resolved."""
    assert parse_solve(solve_body(overrides={"c": 2})).spec.overrides == (("c", 2),)
    bads = (
        {"bogus": 1},
        {"seed_chunk": 4, "seed_scan_workers": 2},
        {"eps": 0.3},
        {"strategy": "best_of"},
        {"best_of_k": 8},
        {"enumeration_cap": 1},
    )
    for bad in bads + ({"charge_mode": "chps"},):
        with pytest.raises(ProtocolError) as info:
            parse_solve(solve_body(overrides=bad))
        assert info.value.code == 400
        assert str(sorted(bad)) in str(info.value)

    sched = FakeScheduler()

    async def scenario():
        svc = make_service(sched)
        await svc.start()
        code, payload = await svc.handle(solve_body(overrides={"seed_chunk": 4}))
        await svc.drain()
        return code, payload

    code, payload = run_async(scenario())
    assert code == 400 and "seed_chunk" in payload["error"]["message"]
    assert sched.jobs_run == 0


#: Requests that set what their entry does not read, and the field each
#: refusal must name.
UNREAD = (
    (dict(problem="mis", model="cclique", force="general"), "force"),
    (dict(problem="vc", paper_rule=True), "paper_rule"),
    (dict(problem="mis", force="bogus"), "force"),
    (dict(problem="mis", model="cclique", options={"charge_mod": "chps"}), "charge_mod"),
)


def test_reply_spec_posts_back_as_it_is():
    """``parse_solve(request.to_dict())`` is the request again, options and
    all, so a reply's ``result.spec`` can be sent back unchanged."""
    src = GraphSource.generator("gnp_random_graph", n=40, p=0.1, seed=0)
    for request in (
        SolveRequest("mis", "cclique", source=src),
        SolveRequest("mis", "cclique", source=src, options={"charge_mode": "chps"}),
        SolveRequest("coloring", source=src, options={"num_colors": 9}),
        SolveRequest("matching", source=src, force="lowdeg", paper_rule=True),
    ):
        assert parse_solve(request.to_dict()).spec == request


def test_fields_the_entry_does_not_read_are_400_naming_them():
    sched = FakeScheduler()
    bodies = [{**solve_body(), "model": "simulated", **kw} for kw, _ in UNREAD]
    for body, (_, field) in zip(bodies, UNREAD):
        with pytest.raises(ProtocolError) as info:
            parse_solve(body)
        assert info.value.code == 400 and field in str(info.value)

    async def scenario():
        svc = make_service(sched)
        await svc.start()
        replies = [await svc.handle(body) for body in bodies]
        await svc.drain()
        return replies

    for (code, payload), (_, field) in zip(run_async(scenario()), UNREAD):
        assert code == 400 and field in payload["error"]["message"]
    assert sched.jobs_run == 0


def test_job_names_and_unregistered_pairs_are_400_listing_the_pairs():
    """The wire names an entry by ``(problem, model)`` only: a job name
    such as ``cc_mis``, or a pair the registry does not hold, is refused
    at parse time with the registered pairs in the message."""
    sched = FakeScheduler()
    bodies = (
        dict(solve_body(), problem="cc_mis", model=None),
        dict(solve_body(), problem="cc_mis"),
        dict(solve_body(), problem="vc", model="cclique"),
    )

    async def scenario():
        svc = make_service(sched)
        await svc.start()
        replies = [await svc.handle(body) for body in bodies]
        await svc.drain()
        return replies

    for code, payload in run_async(scenario()):
        assert code == 400 and payload["error"]["type"] == "ProtocolError"
        assert "registered pairs: " in payload["error"]["message"]
        assert "mis/cclique" in payload["error"]["message"]
    assert sched.jobs_run == 0


def test_coalesce_key_semantics():
    a = parse_solve(solve_body(seed=1)).spec
    b = parse_solve(solve_body(seed=1)).spec
    c = parse_solve(solve_body(seed=2)).spec
    d = parse_solve(solve_body(seed=1, eps=0.7)).spec
    assert coalesce_key(a) == coalesce_key(b)
    assert coalesce_key(a) != coalesce_key(c)  # different input
    assert coalesce_key(a) != coalesce_key(d)  # different params


# ---------------------------------------------------------------------- #
# Coalescer
# ---------------------------------------------------------------------- #


def test_coalescer_leader_then_followers_then_release():
    async def scenario():
        co = Coalescer()
        fut, leader = co.admit("k")
        assert leader
        fut2, leader2 = co.admit("k")
        assert not leader2 and fut2 is fut
        fut.set_result(42)
        co.finish("k")
        fut3, leader3 = co.admit("k")  # in-flight dedup, not a cache
        assert leader3 and fut3 is not fut
        fut3.set_result(0)
        assert co.stats.leaders == 2 and co.stats.followers == 1

    run_async(scenario())


# ---------------------------------------------------------------------- #
# Coalescing and per-request solves through the service
# ---------------------------------------------------------------------- #


def test_identical_concurrent_requests_one_scheduler_job():
    sched = FakeScheduler(delay=0.2)

    async def scenario():
        svc = make_service(sched)
        await svc.start()
        replies = await asyncio.gather(
            *(svc.handle(solve_body(seed=5)) for _ in range(6))
        )
        await svc.drain()
        return replies

    replies = run_async(scenario())
    assert [code for code, _ in replies] == [200] * 6
    assert all(p["ok"] and p["status"] == "ok" for _, p in replies)
    # The acceptance claim: 6 identical concurrent requests, ONE job.
    assert sched.jobs_run == 1
    assert sum(1 for _, p in replies if p["coalesced"]) == 5


def test_fast_request_is_answered_while_another_solve_runs():
    """Each leader runs its own ``Scheduler.run``: a quick request does not
    wait for an unrelated slow solve that is still on the pool."""
    sched = FakeScheduler(delay={1: 0.6, 2: 0.0})

    async def scenario():
        svc = make_service(sched)
        await svc.start()
        slow = asyncio.ensure_future(svc.handle(solve_body(seed=1)))
        await asyncio.sleep(0.05)  # the slow solve is running
        t0 = time.perf_counter()
        code, payload = await svc.handle(solve_body(seed=2))
        fast_s = time.perf_counter() - t0
        slow_running = not slow.done()
        slow_code, _ = await slow
        await svc.drain()
        return code, payload, fast_s, slow_running, slow_code

    code, payload, fast_s, slow_running, slow_code = run_async(scenario())
    assert code == 200 and payload["ok"] and slow_code == 200
    assert slow_running
    assert fast_s < 0.3, f"the fast reply took {fast_s:.2f}s"


def test_batch_failure_propagates_to_all_waiters():
    """A scheduler exception answers 500 to each leader and to every
    follower coalesced onto it."""
    sched = FakeScheduler(fail=True)

    async def scenario():
        svc = make_service(sched)
        await svc.start()
        replies = await asyncio.gather(
            *(svc.handle(solve_body(seed=s)) for s in (0, 0, 1, 1, 2, 2))
        )
        completed = await svc.drain()
        return replies, completed

    replies, completed = run_async(scenario())
    assert [code for code, _ in replies] == [500] * 6
    assert all(p["error"]["type"] == "RuntimeError" for _, p in replies)
    assert sched.jobs_run == 3  # one per leader; followers shared its failure
    assert completed


# ---------------------------------------------------------------------- #
# Admission control + drain
# ---------------------------------------------------------------------- #


def test_backpressure_rejects_beyond_max_inflight():
    sched = FakeScheduler(delay=0.3)

    async def scenario():
        svc = make_service(sched, max_inflight=2)
        await svc.start()
        replies = await asyncio.gather(
            *(svc.handle(solve_body(seed=s)) for s in range(6))
        )
        await svc.drain()
        return replies, svc

    replies, svc = run_async(scenario())
    codes = sorted(code for code, _ in replies)
    assert codes == [200, 200, 503, 503, 503, 503]
    rejected = [p for code, p in replies if code == 503]
    assert all(p["error"]["type"] == "QueueFull" for p in rejected)
    assert all("retry_after_s" in p["error"] for p in rejected)
    assert svc.rejected == 4 and svc.requests == 6


def test_graceful_drain_completes_inflight_then_refuses():
    sched = FakeScheduler(delay=0.25)

    async def scenario():
        svc = make_service(sched)
        await svc.start()
        inflight = [
            asyncio.ensure_future(svc.handle(solve_body(seed=s)))
            for s in range(2)
        ]
        await asyncio.sleep(0.05)  # admitted, still solving
        completed = await svc.drain(timeout=10)
        late_code, late = await svc.handle(solve_body(seed=9))
        return completed, [t.result() for t in inflight], late_code, late

    completed, replies, late_code, late = run_async(scenario())
    assert completed
    assert all(code == 200 and p["ok"] for code, p in replies)  # finished
    assert late_code == 503 and late["error"]["type"] == "Draining"
    assert sched.closed  # worker pool released


def test_drain_waits_for_a_timed_out_leader_then_closes():
    """A 504 answers the requester, but the shielded solve goes on and
    fills the cache: drain returns only after it, and closes the pool
    last."""
    sched = FakeScheduler(delay=0.4)

    async def scenario():
        svc = make_service(sched)
        await svc.start()
        code, _ = await svc.handle(solve_body(seed=1, timeout=0.05))
        events_at_504 = list(sched.events)
        completed = await svc.drain(timeout=10)
        return code, events_at_504, completed

    code, events_at_504, completed = run_async(scenario())
    assert code == 504 and "ran" not in events_at_504  # still solving
    assert completed
    assert sched.events == ["run", "ran", "close"]


def test_per_request_timeout_504():
    sched = FakeScheduler(delay=0.4)

    async def scenario():
        svc = make_service(sched)
        await svc.start()
        code, payload = await svc.handle(solve_body(seed=1, timeout=0.05))
        await svc.drain()
        return code, payload

    code, payload = run_async(scenario())
    assert code == 504
    assert payload["error"]["type"] == "RequestTimeout"


def test_protocol_error_is_400_and_does_not_occupy_a_slot():
    sched = FakeScheduler()

    async def scenario():
        svc = make_service(sched, max_inflight=1)
        await svc.start()
        code, payload = await svc.handle(solve_body(bogus_key=1))
        health = svc.healthz()
        await svc.drain()
        return code, payload, health

    code, payload, health = run_async(scenario())
    assert code == 400 and payload["error"]["type"] == "ProtocolError"
    assert health["active"] == 0
    assert sched.jobs_run == 0


def test_include_solution_without_a_cache_is_400():
    """The solution is read back from the cache entry the solve wrote: a
    service without a cache refuses the request instead of answering 200
    without the solution."""
    sched = FakeScheduler()  # cache=None, like `repro serve --no-cache`

    async def scenario():
        svc = make_service(sched)
        await svc.start()
        refused = await svc.handle(solve_body(include_solution=True))
        plain = await svc.handle(solve_body())
        await svc.drain()
        return refused, plain

    (code, payload), (plain_code, _) = run_async(scenario())
    assert code == 400 and payload["error"]["type"] == "ProtocolError"
    assert "--no-cache" in payload["error"]["message"]
    assert plain_code == 200
    assert sched.jobs_run == 1  # only the plain request ran


# ---------------------------------------------------------------------- #
# End to end: HTTP
# ---------------------------------------------------------------------- #


def http_post(base: str, obj: dict) -> tuple[int, dict]:
    req = urllib.request.Request(
        f"{base}/solve",
        data=json.dumps(obj).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def http_get(base: str, path: str) -> tuple[int, str]:
    try:
        with urllib.request.urlopen(base + path) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


def test_http_end_to_end(tmp_path):
    async def scenario():
        svc = SolverService(workers=1, cache=str(tmp_path / "cache"))
        await svc.start()
        server = await svc.start_http(port=0)
        base = f"http://127.0.0.1:{server.sockets[0].getsockname()[1]}"
        loop = asyncio.get_running_loop()
        # METRICS is process-global: count this test's requests only.
        requests_before = METRICS.counters_snapshot().get("serve.requests", 0)

        def in_thread(fn, *a):
            return loop.run_in_executor(None, fn, *a)

        body = solve_body(seed=11, include_solution=True)
        code, payload = await in_thread(http_post, base, body)
        assert code == 200 and payload["ok"]
        assert payload["status"] == "ok" and not payload["cache_hit"]
        assert payload["result"]["verified"] is True
        assert len(payload["solution"]) == payload["result"]["solution_size"]

        code, payload = await in_thread(http_post, base, solve_body(seed=11))
        assert code == 200 and payload["cache_hit"]  # across-time dedup

        code, text = await in_thread(http_get, base, "/healthz")
        health = json.loads(text)
        assert code == 200 and health["state"] == "serving"
        code, text = await in_thread(http_get, base, "/metrics")
        assert code == 200
        assert f"\nserve_requests {requests_before + 2}\n" in text
        assert "# TYPE serve_latency_s summary" in text
        code, text = await in_thread(http_get, base, "/solvers")
        solvers = json.loads(text)["solvers"]
        assert code == 200
        assert any(s["problem"] == "mis" and s["model"] == "cclique" for s in solvers)
        assert all(set(s) == {"problem", "model", "capabilities", "description"}
                   for s in solvers)

        code, payload = await in_thread(
            http_post, base, {"problem": "mis", "nope": 1}
        )
        assert code == 400 and payload["error"]["type"] == "ProtocolError"
        code, text = await in_thread(http_get, base, "/no-such-route")
        assert code == 404

        server.close()
        await server.wait_closed()
        assert await svc.drain(30)

    run_async(scenario())


# ---------------------------------------------------------------------- #
# End to end: stdio JSON lines
# ---------------------------------------------------------------------- #


def test_stdio_end_to_end(tmp_path):
    requests = [
        {"op": "ping"},
        dict(solve_body(seed=3, n=30), op="solve", id="a"),
        dict(solve_body(seed=3, n=30), op="solve", id="b"),  # coalesce/cache
        {"op": "solvers"},
    ]
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--stdio",
            "--cache-dir",
            str(tmp_path / "cache"),
        ],
        input="\n".join(json.dumps(r) for r in requests) + "\n",
        capture_output=True,
        text=True,
        timeout=180,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    replies = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(replies) == 4
    by_id = {r.get("id"): r for r in replies if "id" in r}
    assert by_id["a"]["ok"] and by_id["a"]["status"] == "ok"
    assert by_id["b"]["ok"] and (
        by_id["b"]["coalesced"] or by_id["b"]["cache_hit"]
    )
    assert any(r.get("state") == "serving" for r in replies)  # the ping
    assert any("solvers" in r for r in replies)


# ---------------------------------------------------------------------- #
# Every request gets an answer: a torn cache object, a raising handler
# ---------------------------------------------------------------------- #


def _tear_cached_npz(cache_dir) -> None:
    """Cut the cache's one solution npz in half (a torn write)."""
    (npz,) = (cache_dir / "objects").glob("*.npz")
    data = npz.read_bytes()
    npz.write_bytes(data[: len(data) // 2])


def test_include_solution_on_a_torn_npz_over_http(tmp_path):
    """A cache hit whose npz is unreadable is answered like a missing
    entry: a 200 without ``solution``, not a 500."""
    cache_dir = tmp_path / "cache"
    body = solve_body(seed=5, include_solution=True, id="torn")

    async def scenario():
        svc = SolverService(workers=1, cache=str(cache_dir))
        await svc.start()
        server = await svc.start_http(port=0)
        base = f"http://127.0.0.1:{server.sockets[0].getsockname()[1]}"
        loop = asyncio.get_running_loop()
        first = await loop.run_in_executor(None, http_post, base, body)
        _tear_cached_npz(cache_dir)
        second = await loop.run_in_executor(None, http_post, base, body)
        server.close()
        await server.wait_closed()
        assert await svc.drain(30)
        return first, second

    (code, payload), (torn_code, torn) = run_async(scenario())
    assert code == 200 and len(payload["solution"]) == payload["result"]["solution_size"]
    assert torn_code == 200 and torn["ok"] and torn["cache_hit"]
    assert torn["id"] == "torn" and "solution" not in torn
    assert torn["result"]["solution_size"] == payload["result"]["solution_size"]


def test_a_torn_npz_is_discarded_and_the_next_request_solves_afresh(tmp_path):
    """The request that finds the npz torn answers without a solution and
    drops the entry; the next one solves and stores it again."""
    cache_dir = tmp_path / "cache"
    body = solve_body(seed=5, include_solution=True)

    async def scenario():
        svc = SolverService(workers=1, cache=str(cache_dir))
        await svc.start()
        first = await svc.handle(body)
        _tear_cached_npz(cache_dir)
        after = [await svc.handle(body) for _ in range(3)]
        assert await svc.drain(30)
        return first, after

    (code, payload), after = run_async(scenario())
    assert code == 200 and not payload["cache_hit"]
    assert [c for c, _ in after] == [200, 200, 200]
    (_, torn), (_, fresh), (_, hit) = after
    assert torn["cache_hit"] and "solution" not in torn
    assert not fresh["cache_hit"] and fresh["solution"] == payload["solution"]
    assert hit["cache_hit"] and hit["solution"] == payload["solution"]


def test_include_solution_on_a_torn_npz_over_stdio(tmp_path):
    from repro.runtime import ResultCache, Scheduler

    cache_dir = tmp_path / "cache"
    body = dict(solve_body(seed=5, include_solution=True), op="solve", id="torn")
    with Scheduler(cache=ResultCache(cache_dir)) as sched:
        assert sched.run([parse_solve(body).spec]).all_ok
    _tear_cached_npz(cache_dir)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--stdio", "--cache-dir", str(cache_dir)],
        input=json.dumps(body) + "\n",
        capture_output=True,
        text=True,
        timeout=180,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    (reply,) = [json.loads(line) for line in proc.stdout.splitlines()]
    assert reply["id"] == "torn" and reply["ok"] and reply["cache_hit"]
    assert "solution" not in reply


class _Lines:
    """A stdio writer stand-in collecting what the loop writes."""

    def __init__(self) -> None:
        self.data = b""

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass


def test_stdio_answers_a_line_whose_handling_raises():
    async def scenario():
        svc = make_service(FakeScheduler())
        await svc.start()

        async def boom(obj):
            raise RuntimeError("handler exploded")

        svc.handle = boom
        reader = asyncio.StreamReader()
        reader.feed_data(json.dumps(dict(solve_body(), id="x")).encode() + b"\n")
        reader.feed_eof()
        out = _Lines()
        await svc.serve_stdio(reader, out)
        return [json.loads(line) for line in out.data.splitlines()]

    (reply,) = run_async(scenario())
    assert reply["id"] == "x" and reply["code"] == 500 and not reply["ok"]
    assert reply["error"] == {"type": "RuntimeError", "message": "handler exploded"}


# ---------------------------------------------------------------------- #
# Signals: every mode drains, and nothing outlives the service
# ---------------------------------------------------------------------- #


def _group_is_gone(pgid: int, timeout: float = 10.0) -> bool:
    """True once no process is left in process group ``pgid``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


def _finish(proc: subprocess.Popen) -> tuple[int, bool, str, str]:
    """``(exit code, group emptied, stdout, stderr)`` of a ``repro serve``
    subprocess told to stop.  Whatever its group left behind is killed
    before the pipes are read: a leftover pool worker holds them open."""
    try:
        code = proc.wait(timeout=60)
        emptied = _group_is_gone(proc.pid)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    out, err = proc.communicate()
    return code, emptied, out, err


def test_stdio_sigterm_drains_and_leaves_nothing(tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--stdio",
         "--cache-dir", str(tmp_path / "cache")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**subprocess_env(), "TMPDIR": str(tmpdir)},
        start_new_session=True,
    )
    line = json.dumps(solve_body(seed=4, n=30, id="a")) + "\n"
    proc.stdin.write(line)
    proc.stdin.flush()
    answered = json.loads(proc.stdout.readline())
    proc.send_signal(signal.SIGTERM)
    try:  # input arriving during the drain must not be fed after EOF
        proc.stdin.write(line)
        proc.stdin.flush()
    except BrokenPipeError:
        pass
    code, emptied, _, err = _finish(proc)
    assert answered["ok"]
    assert code == 0, err
    assert emptied
    assert "feed_data after feed_eof" not in err
    assert list(tmpdir.glob("repro-graphs-*")) == []


#: A ``repro serve`` whose module-level ``print`` sends SIGTERM to its own
#: process the moment it prints the ready line.
_TERM_ON_READY = """
import builtins, os, signal, sys
import repro.serve.cli as cli
from repro.__main__ import main

def print_then_term(*args, **kw):
    builtins.print(*args, **kw)
    if args and str(args[0]).startswith("repro serve: http://"):
        os.kill(os.getpid(), signal.SIGTERM)

cli.print = print_then_term
sys.exit(main(["serve", "--port", "0", "--cache-dir", sys.argv[1]]))
"""


def test_http_sigterm_on_the_ready_line_drains(tmp_path):
    """The handlers are installed before the ready line is printed, so a
    SIGTERM sent as soon as it is read drains instead of killing the
    process (and orphaning its pool worker)."""
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    proc = subprocess.Popen(
        [sys.executable, "-c", _TERM_ON_READY, str(tmp_path / "cache")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**subprocess_env(), "TMPDIR": str(tmpdir)},
        start_new_session=True,
    )
    code, emptied, out, err = _finish(proc)
    assert code == 0, err
    assert "drained (clean)" in out
    assert emptied
    assert list(tmpdir.glob("repro-graphs-*")) == []
