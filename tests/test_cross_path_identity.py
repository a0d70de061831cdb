"""Cross-path identity: one SolveRequest, five ways to run it, one answer.

For every registry entry, the same request goes through ``solve()``, a
``Scheduler.run`` that ships the graph as npz bytes, a ``Scheduler.run``
backed by a ``GraphStore``, a warm result-cache hit, and
``SolverService.handle``.  Every path must return the same solution bytes
and rounds, and address the same cache entry.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.api import REGISTRY, SolveRequest, solve
from repro.graphs import GraphSource, GraphStore, graph_fingerprint
from repro.runtime import ResultCache, Scheduler
from repro.serve import SolverService

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


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("paths")
    requests = [
        SolveRequest(e.problem, e.model, source=SOURCE, tag=f"{e.problem}/{e.model}")
        for e in REGISTRY.entries()
    ]
    npz_cache = ResultCache(tmp / "npz-cache")
    store_cache = ResultCache(tmp / "store-cache")
    npz = Scheduler(workers=1, cache=npz_cache).run(requests)
    stored = Scheduler(
        workers=1, cache=store_cache, store=GraphStore(tmp / "store")
    ).run(requests)
    warm = Scheduler(workers=1, cache=npz_cache).run(requests)
    replies = asyncio.run(serve_all(requests, str(tmp / "serve-cache")))
    return requests, npz_cache, store_cache, npz, stored, warm, replies


def test_every_path_returns_the_same_bytes_for_every_entry(paths):
    requests, npz_cache, store_cache, npz, stored, warm, replies = paths
    fp = graph_fingerprint(SOURCE.resolve())
    for i, request in enumerate(requests):
        what = request.tag
        direct = solve(request)
        want = as_int64(direct.solution).tobytes()
        key = request.cache_key(fp)

        for batch, cache in ((npz, npz_cache), (stored, store_cache)):
            job = batch.results[i]
            assert job.ok and not job.cache_hit, (what, job.error_message)
            assert job.spec == request, what
            assert job.spec.cache_key(job.fingerprint) == key, what
            assert job.rounds == direct.rounds, what
            arrays = cache.get(key).arrays()
            assert as_int64(arrays["solution"]).tobytes() == want, what

        hit = warm.results[i]
        assert hit.cache_hit and hit.spec.cache_key(hit.fingerprint) == key, what
        loaded = npz_cache.get(key).load_result()
        assert as_int64(loaded.solution).tobytes() == want, what
        assert (loaded.rounds, loaded.words_moved) == (
            direct.rounds,
            direct.words_moved,
        ), what

        code, reply = replies[i]
        assert code == 200 and reply["ok"], (what, reply)
        served = SolveRequest.from_dict(reply["result"]["spec"])
        assert served == request, what
        assert served.cache_key(reply["result"]["fingerprint"]) == key, what
        assert reply["result"]["rounds"] == direct.rounds, what
        solution = as_int64(reply["solution"]).reshape(direct.solution.shape)
        assert solution.tobytes() == want, what
