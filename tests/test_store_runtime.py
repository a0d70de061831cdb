"""Store-backed dispatch through the batch runtime.

Every job reaches its worker as a graph-store key.  Three contracts:

* **Parity** — a batch on the scheduler's private store and one on a named
  store both produce what ``solve()`` produces (fingerprint, solution size,
  rounds, verification), across the whole registry matrix at small n.
* **Dispatch** — each distinct source is built into the store once; later
  runs resolve it as a store hit, and the counters (``store_hits`` /
  ``store_misses``) land in ``BatchStats.to_dict``.
* **Robustness** — a corrupt or missing shard degrades to regenerate-and-
  warn (``store_fallback`` in ``JobResult.meta``, ``store_fallbacks``
  counter), never a job failure.
"""

from __future__ import annotations

import os
import time

import pytest

import repro.graphs.store as store_mod
import repro.runtime.scheduler as scheduler_module
import repro.runtime.worker as worker_module
from repro.api import SolveRequest, solve
from repro.graphs import GraphSource, GraphStore, graph_fingerprint
from repro.obs.metrics import METRICS
from repro.runtime import Scheduler, build_suite, get_suite
from repro.runtime.worker import run_job


def _small_specs() -> list[SolveRequest]:
    specs = []
    for seed in (0, 1):
        src = GraphSource.generator("gnp_random_graph", n=120, p=0.05, seed=seed)
        for problem in ("mis", "matching"):
            specs.append(SolveRequest(problem, source=src, tag=f"{problem}-s{seed}"))
    return specs


def _assert_batch_matches_solve(batch):
    assert batch.all_ok, [r.error_message for r in batch.failures()]
    for r in batch.results:
        direct = solve(r.spec)
        assert r.fingerprint == graph_fingerprint(r.spec.source.resolve()), r.spec.tag
        assert r.solution_size == direct.solution_size, r.spec.tag
        assert r.rounds == direct.rounds, r.spec.tag
        assert r.verified == direct.verified, r.spec.tag


class TestStoreBackedParity:
    def test_same_results_as_npz_path(self, tmp_path, monkeypatch):
        # The private store (no directory named) and a named one are the
        # same path: both must give what solve() gives.
        monkeypatch.delenv("REPRO_GRAPH_STORE", raising=False)
        specs = _small_specs()
        _assert_batch_matches_solve(Scheduler(workers=2).run(specs))
        named = Scheduler(workers=2, store=GraphStore(tmp_path)).run(specs)
        _assert_batch_matches_solve(named)

    def test_registry_matrix_parity(self, tmp_path, monkeypatch):
        # Every (problem, model) entry — including the engine rows, whose
        # arc plane is derived worker-side from the mmap'd shards — must
        # agree with solve() on the in-memory graph.
        monkeypatch.delenv("REPRO_GRAPH_STORE", raising=False)
        specs = build_suite("registry-matrix")
        _assert_batch_matches_solve(Scheduler(workers=2).run(specs))
        named = Scheduler(workers=2, store=GraphStore(tmp_path)).run(specs)
        _assert_batch_matches_solve(named)

    def test_non_streaming_source_goes_through_store(self, tmp_path):
        # grid_graph has no streaming variant: resolved in-memory, put into
        # the store, still dispatched by key.
        spec = SolveRequest(
            "mis", source=GraphSource.generator("grid_graph", rows=8, cols=8)
        )
        store = GraphStore(tmp_path)
        batch = Scheduler(store=store).run([spec])
        assert batch.all_ok
        assert batch.results[0].fingerprint in store

    def test_stored_non_streaming_source_is_not_rebuilt(self, tmp_path, monkeypatch):
        # random_tree has no streaming variant: the second run finds its
        # fingerprint in the store and builds no shards.
        built = []
        build = store_mod.build_csr_shards

        def spy(out_dir, n, blocks, **kw):
            built.append(n)
            return build(out_dir, n, blocks, **kw)

        monkeypatch.setattr(store_mod, "build_csr_shards", spy)
        spec = SolveRequest(
            "mis", source=GraphSource.generator("random_tree", n=300, seed=1)
        )
        first = Scheduler(store=GraphStore(tmp_path)).run([spec])
        second = Scheduler(store=GraphStore(tmp_path)).run([spec])
        assert first.all_ok and second.all_ok
        assert built == [300]
        assert (first.stats.store_hits, first.stats.store_misses) == (0, 1)
        assert (second.stats.store_hits, second.stats.store_misses) == (1, 0)
        assert second.results[0].solution_size == first.results[0].solution_size


class TestDispatchVolume:
    def test_second_batch_hits_store(self, tmp_path):
        specs = _small_specs()
        before = METRICS.counters_snapshot()
        Scheduler(store=GraphStore(tmp_path)).run(specs)
        second = Scheduler(store=GraphStore(tmp_path)).run(specs)
        delta = METRICS.delta(before, METRICS.counters_snapshot())
        assert second.stats.store_hits == 2  # two distinct sources
        assert second.stats.store_misses == 0
        assert delta.get("store.shard_hits", 0) >= 2
        assert delta.get("store.shard_misses", 0) >= 2
        payload = second.stats.to_dict()
        assert (payload["store_hits"], payload["store_misses"]) == (2, 0)

    @pytest.mark.parametrize(
        "source",
        [
            GraphSource.generator("gnp_random_graph", n=80, p=0.05, seed=3),
            GraphSource.generator("grid_graph", rows=8, cols=8),
        ],
        ids=["streaming", "non-streaming"],
    )
    def test_a_store_hit_takes_no_store_lock(self, tmp_path, source):
        """A hit resolves while another thread holds the store lock (a build
        and its eviction in progress)."""
        import threading

        with Scheduler(store=GraphStore(tmp_path)) as sched:
            built = sched._resolve_one(source)
            resolved = []
            with sched._store_lock:
                reader = threading.Thread(
                    target=lambda: resolved.append(sched._resolve_one(source))
                )
                reader.start()
                reader.join(timeout=5)
                assert [info.fingerprint for info in resolved] == [built.fingerprint]
            assert resolved[0].hit

    def test_env_var_opt_in(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_STORE", str(tmp_path))
        with Scheduler() as sched:
            assert os.fspath(sched.store.root) == str(tmp_path)
        assert tmp_path.exists()  # a named store outlives the scheduler
        monkeypatch.delenv("REPRO_GRAPH_STORE")
        with Scheduler() as sched:
            private = sched.store.root
            assert private.name.startswith("repro-graphs-")
            assert sched.store.max_bytes == scheduler_module.PRIVATE_STORE_BYTES
        assert not private.exists()


class TestShardFallback:
    def _corrupt(self, store: GraphStore, fingerprint: str, how: str) -> None:
        victim = store._object_dir(fingerprint) / "indices.npy"
        if how == "truncate":
            data = victim.read_bytes()
            victim.write_bytes(data[: len(data) // 2])
        else:
            victim.unlink()

    @pytest.mark.parametrize("how", ["truncate", "delete"])
    def test_corrupt_shard_regenerates_with_warning(self, tmp_path, how):
        spec = _small_specs()[0]
        store = GraphStore(tmp_path)
        first = Scheduler(store=store).run([spec])
        assert first.all_ok
        fp = first.results[0].fingerprint
        self._corrupt(store, fp, how)
        before = METRICS.counters_snapshot()
        batch = Scheduler(store=GraphStore(tmp_path)).run([spec])
        r = batch.results[0]
        assert r.ok, r.error_message  # degraded, not failed
        assert r.solution_size == first.results[0].solution_size
        warn = r.meta["store_fallback"]
        assert warn["fingerprint"] == fp
        assert warn["error_type"] == "StoreCorruptError"
        assert warn["error_message"]
        assert batch.stats.store_fallbacks == 1
        assert batch.stats.to_dict()["store_fallbacks"] == 1
        delta = METRICS.delta(before, METRICS.counters_snapshot())
        assert delta.get("store.fallbacks", 0) == 1  # counted once, by the parent

    def test_missing_object_entirely(self, tmp_path):
        # Worker pointed at a store that lost the whole object directory.
        spec = _small_specs()[0]
        store = GraphStore(tmp_path)
        info = Scheduler(store=store).run([spec])
        fp = info.results[0].fingerprint
        import shutil

        shutil.rmtree(store._object_dir(fp))
        payload = {
            "spec": spec.to_dict(),
            "graph_store": os.fspath(store.root),
            "fingerprint": fp,
            "timeout": None,
            "trace": False,
        }
        before = METRICS.counters_snapshot()
        out = run_job(payload)
        assert out["status"] == "ok"
        assert out["meta"]["store_fallback"]["error_type"] == "StoreMissError"
        # The worker reports the fallback; only the parent counts it.
        delta = METRICS.delta(before, METRICS.counters_snapshot())
        assert delta.get("store.fallbacks", 0) == 0

    @pytest.mark.skipif(
        not hasattr(worker_module.signal, "SIGALRM"),
        reason="per-job timeout needs SIGALRM",
    )
    def test_timeout_during_open_is_a_timeout_not_a_fallback(
        self, tmp_path, monkeypatch
    ):
        spec = _small_specs()[0]

        def slow_open(root, fingerprint):
            time.sleep(5)

        monkeypatch.setattr(worker_module, "open_stored_graph", slow_open)
        out = run_job(
            {
                "spec": spec.to_dict(),
                "graph_store": os.fspath(tmp_path),
                "fingerprint": "f" * 64,
                "timeout": 0.05,
                "trace": False,
            }
        )
        assert out["status"] == "timeout" and out["error_type"] == "JobTimeout"
        assert "store_fallback" not in out.get("meta", {})

    def test_fallback_meta_merges_with_trace_meta(self, tmp_path):
        # Tracing sets meta["trace_spans"]; a fallback must merge, not
        # clobber.
        spec = _small_specs()[0]
        store = GraphStore(tmp_path)
        first = Scheduler(store=store).run([spec])
        self._corrupt(store, first.results[0].fingerprint, "truncate")
        batch = Scheduler(store=GraphStore(tmp_path), trace=True).run([spec])
        r = batch.results[0]
        assert r.ok
        assert "store_fallback" in r.meta and "trace_spans" in r.meta


    def test_unreadable_meta_rebuilds_as_a_store_miss(self, tmp_path):
        # A torn meta.json fails no job: the parent drops the entry,
        # rebuilds the graph and counts a store miss.
        spec = _small_specs()[0]
        store = GraphStore(tmp_path)
        first = Scheduler(store=store).run([spec])
        meta = store._meta_path(first.results[0].fingerprint)
        meta.write_bytes(meta.read_bytes()[:40])
        before = METRICS.counters_snapshot()
        batch = Scheduler(store=GraphStore(tmp_path)).run([spec])
        r = batch.results[0]
        assert r.ok, r.error_message
        assert r.solution_size == first.results[0].solution_size
        assert (batch.stats.store_hits, batch.stats.store_misses) == (0, 1)
        assert batch.stats.store_fallbacks == 0
        delta = METRICS.delta(before, METRICS.counters_snapshot())
        assert delta.get("store.shard_misses", 0) == 1
        assert GraphStore(tmp_path).verify(r.fingerprint) == []


class TestLargeSweepSuite:
    def test_registered_and_store_ready(self):
        suite = get_suite("large-sweep")
        specs = suite.build()
        assert len(specs) == 3
        from repro.graphs.streaming import STREAMING_GENERATORS

        for spec in specs:
            assert spec.source.kind == "generator"
            assert spec.source.name in STREAMING_GENERATORS
        assert max(dict(s.source.args)["n"] for s in specs) == 1_000_000
