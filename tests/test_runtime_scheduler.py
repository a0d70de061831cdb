"""Scheduler: parallel fan-out, structured failures, retries, cache reruns."""

from __future__ import annotations

import signal
import sys
import threading

import numpy as np
import pytest

import repro.graphs.store as store_module
import repro.runtime.scheduler as scheduler_module
from repro.api import SolveRequest
from repro.graphs import GraphSource, GraphStore
from repro.runtime import (
    ResultCache,
    Scheduler,
    build_suite,
    get_suite,
    list_suites,
)
from repro.verify import verify_mis_nodes


def gnp_spec(problem="mis", n=60, seed=3, **kw) -> SolveRequest:
    return SolveRequest(
        problem,
        source=GraphSource.generator("gnp_random_graph", n=n, p=0.1, seed=seed),
        **kw,
    )


def test_single_job_runs_and_verifies():
    batch = Scheduler(workers=1).run([gnp_spec()])
    (res,) = batch.results
    assert res.ok and res.verified
    assert res.graph_n == 60
    assert res.worker_pid > 0
    assert res.rounds > 0
    assert res.path in ("lowdeg", "general")


def test_worker_exception_is_structured_failure_not_pool_crash():
    """A deliberately failing job (invalid eps => Params raises in the
    worker) must come back as a structured JobResult while healthy jobs in
    the same batch — and later batches on the same scheduler — succeed."""
    bad = gnp_spec(eps=-1.0, tag="bad")
    good1, good2 = gnp_spec(seed=1, tag="g1"), gnp_spec(seed=2, tag="g2")
    sched = Scheduler(workers=2)
    batch = sched.run([good1, bad, good2])
    by_tag = {r.spec.tag: r for r in batch.results}
    assert [r.spec.tag for r in batch.results] == ["g1", "bad", "g2"]  # order kept
    assert by_tag["g1"].ok and by_tag["g2"].ok
    failed = by_tag["bad"]
    assert failed.status == "error"
    assert failed.error_type == "ValueError"
    assert "eps" in failed.error_message
    assert "Traceback" in failed.error_traceback
    assert batch.stats.errors == 1 and batch.stats.ok == 2
    assert not batch.all_ok and batch.failures() == [failed]
    # the pool survived: run again
    assert sched.run([gnp_spec(seed=9)]).all_ok


def test_unknown_override_key_is_refused_before_the_batch():
    """A key that is not a ``Params`` field fails at construction, naming
    it, on the batch path as on the wire; no job is ever built for it."""
    with pytest.raises(ValueError, match=r"unknown overrides keys: \['charge_mode'\]"):
        gnp_spec("mis", model="cclique", overrides={"charge_mode": "chps"})
    # The model switch is an option, not an override, and runs.
    chps = gnp_spec("mis", model="cclique", options={"charge_mode": "chps"})
    assert Scheduler(workers=1).run([chps]).all_ok


def test_run_refuses_requests_without_a_source():
    g = GraphSource.generator("path_graph", n=5).resolve()
    with pytest.raises(ValueError, match=r"need a source; requests \[1\]"):
        Scheduler(workers=1).run([gnp_spec(), SolveRequest("mis", graph=g)])


def test_unresolvable_source_is_structured_failure(tmp_path):
    spec = SolveRequest(
        "mis", source=GraphSource.from_file(str(tmp_path / "missing.edges"))
    )
    batch = Scheduler(workers=1).run([spec])
    (res,) = batch.results
    assert res.status == "error"
    assert res.error_type == "FileNotFoundError"
    assert "input resolution failed" in res.error_message


def test_retries_are_counted():
    bad = gnp_spec(eps=-1.0)
    batch = Scheduler(workers=1, retries=2).run([bad])
    (res,) = batch.results
    assert res.status == "error"
    assert res.attempts == 3  # 1 initial + 2 retries
    assert batch.stats.retries_used == 2


@pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="per-job timeout needs SIGALRM"
)
def test_timeout_is_structured():
    slow = gnp_spec(n=2500, seed=0)  # well over 10ms of solving
    batch = Scheduler(workers=1, timeout=0.01).run([slow])
    (res,) = batch.results
    assert res.status == "timeout"
    assert res.error_type == "JobTimeout"
    assert batch.stats.timeouts == 1


def test_parallel_batch_matches_inline_solutions(tmp_path):
    """Worker-process results equal an in-process solve (determinism)."""
    from repro.core.api import maximal_independent_set

    specs = [gnp_spec(seed=s, tag=f"s{s}") for s in range(4)]
    cache = ResultCache(tmp_path)
    batch = Scheduler(workers=2, cache=cache).run(specs)
    assert batch.all_ok
    from repro.graphs import graph_fingerprint

    for spec, res in zip(specs, batch.results):
        g = spec.source.resolve()
        inline = maximal_independent_set(g, eps=spec.eps)
        key = spec.cache_key(graph_fingerprint(g))
        stored = cache.get(key).arrays()["solution"]
        assert np.array_equal(stored, inline.independent_set)
        assert verify_mis_nodes(g, stored)
        assert res.solution_size == inline.independent_set.size


def test_cache_rerun_hits_without_recompute(tmp_path):
    specs = [gnp_spec(seed=s) for s in range(3)]
    cache = ResultCache(tmp_path)
    sched = Scheduler(workers=2, cache=cache)
    cold = sched.run(specs)
    warm = sched.run(specs)
    assert cold.stats.cache_hits == 0
    assert warm.stats.cache_hits == 3 and warm.stats.cache_hit_rate == 1.0
    assert all(r.cache_hit for r in warm.results)
    for c, w in zip(cold.results, warm.results):
        assert (c.solution_size, c.rounds, c.iterations) == (
            w.solution_size,
            w.rounds,
            w.iterations,
        )
    # cached results skipped the pool entirely
    assert all(r.attempts == 0 for r in warm.results)


def test_warm_rerun_packs_no_graph(tmp_path, monkeypatch):
    """With no store directory named, the scheduler keeps a private store:
    a source's shards are built once, a warm re-run resolves every source
    as a store hit and builds nothing, and ``close()`` removes the store."""
    monkeypatch.delenv("REPRO_GRAPH_STORE", raising=False)
    built = []
    build = store_module.build_csr_shards

    def spy(out_dir, n, blocks, **kw):
        built.append(n)
        return build(out_dir, n, blocks, **kw)

    monkeypatch.setattr(store_module, "build_csr_shards", spy)
    src = GraphSource.generator("gnp_random_graph", n=50, p=0.1, seed=0)
    specs = [SolveRequest(p, source=src) for p in ("mis", "matching")]
    with Scheduler(workers=1, cache=ResultCache(tmp_path)) as sched:
        root = sched.store.root
        assert root.name.startswith("repro-graphs-")
        cold = sched.run(specs)
        assert cold.all_ok
        assert built == [50]  # two misses on one source: one build
        assert (cold.stats.store_hits, cold.stats.store_misses) == (0, 1)
        warm = sched.run(specs)
    assert warm.stats.cache_hits == 2
    assert (warm.stats.store_hits, warm.stats.store_misses) == (1, 0)
    assert built == [50]
    assert not root.exists()


def test_concurrent_runs_share_one_pool_and_one_store_writer(tmp_path, monkeypatch):
    """``Scheduler.run`` from 8 threads at once on one persistent scheduler:
    results stay aligned, the threads share one pool, and the store gets
    one object for the shared source, with no leftover build directory."""
    pools = []
    make_pool = scheduler_module.ProcessPoolExecutor

    def counting_pool(*args, **kw):
        pools.append(make_pool(*args, **kw))
        return pools[-1]

    monkeypatch.setattr(scheduler_module, "ProcessPoolExecutor", counting_pool)
    store = GraphStore(tmp_path / "store")
    src = GraphSource.generator("gnp_random_graph", n=60, p=0.1, seed=5)
    problems = ("mis", "matching", "vc", "ruling2")
    requests = [
        SolveRequest(problems[i % 4], source=src, eps=0.5 + i / 100, tag=f"r{i}")
        for i in range(8)
    ]
    sched = Scheduler(workers=2, store=store, persistent=True)
    start = threading.Barrier(len(requests))
    batches = [None] * len(requests)

    def one(i: int) -> None:
        start.wait()
        batches[i] = sched.run([requests[i]])

    threads = [threading.Thread(target=one, args=(i,)) for i in range(len(requests))]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads' check-then-act
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    sched.close()
    assert not any(t.is_alive() for t in threads)
    assert len(pools) == 1 and sched._pool is None
    for request, batch in zip(requests, batches):
        (res,) = batch.results
        assert res.ok and res.spec == request, (request.tag, res.error_message)
        assert batch.stats.store_fallbacks == 0
    objects = [p.name for p in store.objects_dir.iterdir()]
    assert objects == [res.fingerprint]


def test_shared_source_resolved_once_still_all_jobs_run():
    src = GraphSource.generator("gnp_random_graph", n=50, p=0.1, seed=0)
    specs = [SolveRequest(p, source=src) for p in ("mis", "matching", "vc")]
    batch = Scheduler(workers=2).run(specs)
    assert batch.all_ok
    fps = {r.fingerprint for r in batch.results}
    assert len(fps) == 1  # same content fingerprint for all three


def test_suite_registry_and_sizes():
    names = [s.name for s in list_suites()]
    for expected in ("scaling-sweep", "degree-regime", "derived-problems",
                     "throughput-micro", "cross-model"):
        assert expected in names
    assert len(build_suite("scaling-sweep")) >= 20
    assert len(build_suite("throughput-micro")) == 20
    assert len(build_suite("cross-model")) == 15
    assert get_suite("degree-regime").description
    with pytest.raises(KeyError, match="unknown suite"):
        build_suite("nope")


def test_derived_problems_run_through_scheduler():
    src = GraphSource.generator("random_regular_graph", n=60, d=4, seed=2)
    specs = [SolveRequest(p, source=src) for p in ("vc", "coloring", "ruling2")]
    batch = Scheduler(workers=1).run(specs)
    assert batch.all_ok
    assert all(r.verified for r in batch.results)


def test_cached_model_jobs_load_result_with_snapshot(tmp_path):
    """Cached model jobs rebuild the full SolveResult envelope, snapshot
    included.  (Regression lineage: these entries once stored a result_meta
    without a 'kind' tag, so load_result() raised.)"""
    from repro.api import SolveResult
    from repro.graphs.io import graph_fingerprint
    from repro.models import ModelSnapshot
    from repro.runtime import ResultCache

    cache = ResultCache(tmp_path / "cache")
    src = GraphSource.generator("gnp_random_graph", n=50, p=0.1, seed=7)
    specs = [
        SolveRequest("mis", m, source=src) for m in ("cclique", "congest", "mpc-engine")
    ]
    batch = Scheduler(workers=1, cache=cache).run(specs)
    assert batch.all_ok
    fp = graph_fingerprint(src.resolve())
    for spec in specs:
        hit = cache.get(spec.cache_key(fp))
        res = hit.load_result()
        assert isinstance(res, SolveResult)
        assert isinstance(res.snapshot, ModelSnapshot)
        assert res.snapshot.rounds > 0
        assert res.rounds == res.snapshot.rounds


def test_cross_model_problems_run_through_scheduler():
    """One input billed under every model through the runtime."""
    src = GraphSource.generator("gnp_random_graph", n=80, p=0.06, seed=5)
    specs = [
        SolveRequest("mis", model, source=src, tag=model)
        for model in ("simulated", "cclique", "congest", "mpc-engine")
    ]
    batch = Scheduler(workers=2).run(specs)
    assert batch.all_ok
    by_tag = {r.spec.tag: r for r in batch.results}
    assert all(r.verified for r in batch.results)
    assert by_tag["cclique"].path == "congested-clique"
    assert by_tag["congest"].path == "congest"
    assert by_tag["mpc-engine"].path == "mpc-engine"
    # CONGEST pays the tree cost; the clique run is O(log Delta) rounds
    assert by_tag["congest"].rounds > by_tag["cclique"].rounds
    assert by_tag["mpc-engine"].space_limit > 0
