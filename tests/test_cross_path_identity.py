"""Cross-path identity: one SolveRequest, five ways to run it, one answer.

For every registry entry, the same request goes through ``solve()``, a
``Scheduler.run`` (whose workers open the graph from the scheduler's graph
store), a warm result-cache hit, ``SolverService.handle`` in process, and a
``repro serve --stdio`` subprocess over its JSON-lines wire.  Every path
must return the same solution bytes and rounds, and address the same cache
entry.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys

import numpy as np
import pytest

from repro.api import REGISTRY, SolveRequest, solve
from repro.graphs import GraphSource, graph_fingerprint
from repro.runtime import ResultCache, Scheduler
from repro.serve import SolverService

from test_runtime_spec import subprocess_env

#: The registry-matrix suite's input.
SOURCE = GraphSource.generator("gnp_random_graph", n=120, p=0.05, seed=13)


def as_int64(solution) -> np.ndarray:
    return np.ascontiguousarray(solution, dtype=np.int64)


def wire_body(request: SolveRequest) -> dict:
    """The request as a ``repro serve`` body: its dict, as it is."""
    return {**request.to_dict(), "include_solution": True}


async def serve_all(requests: list[SolveRequest], cache_dir: str) -> list:
    svc = SolverService(workers=1, cache=cache_dir)
    await svc.start()
    try:
        return await asyncio.gather(*(svc.handle(wire_body(r)) for r in requests))
    finally:
        await svc.drain(30)


def serve_stdio_all(requests: list[SolveRequest], tmp) -> list[dict]:
    """One ``repro serve --stdio`` subprocess answers one line per request;
    EOF on stdin drains it.  Its private graph store lives under ``TMPDIR``
    and must be gone once it exits."""
    lines = [json.dumps({**wire_body(r), "id": i}) for i, r in enumerate(requests)]
    (tmp / "tmpdir").mkdir()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--stdio",
         "--cache-dir", str(tmp / "stdio-cache")],
        input="\n".join(lines) + "\n",
        capture_output=True,
        text=True,
        timeout=180,
        env={**subprocess_env(), "TMPDIR": str(tmp / "tmpdir")},
    )
    assert proc.returncode == 0, proc.stderr
    assert list((tmp / "tmpdir").glob("repro-graphs-*")) == []
    by_id = {r["id"]: r for r in map(json.loads, proc.stdout.splitlines())}
    return [by_id[i] for i in range(len(requests))]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("paths")
    requests = [
        SolveRequest(e.problem, e.model, source=SOURCE, tag=f"{e.problem}/{e.model}")
        for e in REGISTRY.entries()
    ]
    cache = ResultCache(tmp / "cache")
    with Scheduler(workers=1, cache=cache) as sched:
        cold = sched.run(requests)
        warm = sched.run(requests)
    replies = asyncio.run(serve_all(requests, str(tmp / "serve-cache")))
    stdio = serve_stdio_all(requests, tmp)
    return requests, cache, cold, warm, replies, stdio


def test_every_path_returns_the_same_bytes_for_every_entry(paths):
    requests, cache, cold, warm, replies, stdio = paths
    fp = graph_fingerprint(SOURCE.resolve())
    for i, request in enumerate(requests):
        what = request.tag
        direct = solve(request)
        want = as_int64(direct.solution).tobytes()
        key = request.cache_key(fp)

        job = cold.results[i]
        assert job.ok and not job.cache_hit, (what, job.error_message)
        assert job.spec == request, what
        assert job.spec.cache_key(job.fingerprint) == key, what
        assert job.rounds == direct.rounds, what
        assert "store_fallback" not in job.meta, what
        arrays = cache.get(key).arrays()
        assert as_int64(arrays["solution"]).tobytes() == want, what

        hit = warm.results[i]
        assert hit.cache_hit and hit.spec.cache_key(hit.fingerprint) == key, what
        loaded = cache.get(key).load_result()
        assert as_int64(loaded.solution).tobytes() == want, what
        assert (loaded.rounds, loaded.words_moved) == (
            direct.rounds,
            direct.words_moved,
        ), what

        code, reply = replies[i]
        assert code == 200, (what, reply)
        for reply in (reply, stdio[i]):
            assert reply["ok"], (what, reply)
            served = SolveRequest.from_dict(reply["result"]["spec"])
            assert served == request, what
            assert served.cache_key(reply["result"]["fingerprint"]) == key, what
            assert reply["result"]["rounds"] == direct.rounds, what
            solution = as_int64(reply["solution"]).reshape(direct.solution.shape)
            assert solution.tobytes() == want, what
