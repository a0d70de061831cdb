"""Store-backed dispatch through the batch runtime.

Three contracts:

* **Parity** — a store-backed batch produces identical results (fingerprint,
  solution size, verification) to the historical pickled-npz path, across
  the whole registry matrix at small n.
* **Dispatch volume** — store keys instead of buffers: per-job shipped bytes
  drop by far more than the 2x the bench gate asserts, and the counters
  (``bytes_shipped``, ``store_hits`` / ``store_misses``) land in
  ``BatchStats.to_payload``.
* **Robustness** — a corrupt or missing shard degrades to regenerate-and-
  warn (``store_fallback`` in ``JobResult.meta``, ``store_fallbacks``
  counter), never a job failure.
"""

from __future__ import annotations

import os

import pytest

from repro.api import SolveRequest
from repro.graphs import GraphSource, GraphStore
from repro.obs.metrics import METRICS
from repro.runtime import (
    ResolvedSource,
    Scheduler,
    build_suite,
    get_suite,
)
from repro.runtime.worker import run_job


def _small_specs() -> list[SolveRequest]:
    specs = []
    for seed in (0, 1):
        src = GraphSource.generator("gnp_random_graph", n=120, p=0.05, seed=seed)
        for problem in ("mis", "matching"):
            specs.append(SolveRequest(problem, source=src, tag=f"{problem}-s{seed}"))
    return specs


def _assert_batches_match(a, b):
    assert a.all_ok, [r.error_message for r in a.failures()]
    assert b.all_ok, [r.error_message for r in b.failures()]
    for ra, rb in zip(a.results, b.results):
        assert ra.fingerprint == rb.fingerprint, ra.spec.tag
        assert ra.solution_size == rb.solution_size, ra.spec.tag
        assert ra.rounds == rb.rounds, ra.spec.tag
        assert ra.verified == rb.verified, ra.spec.tag


class TestStoreBackedParity:
    def test_same_results_as_npz_path(self, tmp_path):
        specs = _small_specs()
        base = Scheduler(workers=2).run(specs)
        store = Scheduler(workers=2, store=GraphStore(tmp_path)).run(specs)
        _assert_batches_match(base, store)

    def test_registry_matrix_parity(self, tmp_path):
        # Every (problem, model) entry — including the engine rows, whose
        # arc plane is derived worker-side on the store path — must agree
        # with the npz path bit for bit.
        specs = build_suite("registry-matrix")
        base = Scheduler(workers=2).run(specs)
        store = Scheduler(workers=2, store=GraphStore(tmp_path)).run(specs)
        _assert_batches_match(base, store)

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


class TestDispatchVolume:
    def test_store_ships_fraction_of_npz_bytes(self, tmp_path):
        # 8 jobs on one source: the npz path ships the buffer 8 times, the
        # store path ships 8 key strings.
        src = GraphSource.generator("gnp_random_graph", n=400, p=0.03, seed=5)
        specs = [
            SolveRequest("mis", source=src, eps=0.5 + i / 100, tag=f"j{i}")
            for i in range(8)
        ]
        base = Scheduler().run(specs)
        store = Scheduler(store=GraphStore(tmp_path)).run(specs)
        _assert_batches_match(base, store)
        assert base.stats.bytes_shipped > 8 * 1024
        assert store.stats.bytes_shipped * 2 < base.stats.bytes_shipped
        payload = store.stats.to_payload()
        assert payload["bytes_shipped"] == store.stats.bytes_shipped
        assert payload["store_misses"] == 1
        assert payload["store_hits"] == 0

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
        assert delta.get("runtime.bytes_shipped", 0) > 0

    def test_env_var_opt_in(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_STORE", str(tmp_path))
        sched = Scheduler()
        assert sched.store is not None
        assert os.fspath(sched.store.root) == str(tmp_path)
        monkeypatch.delenv("REPRO_GRAPH_STORE")
        assert Scheduler().store is None


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
        assert batch.stats.to_payload()["store_fallbacks"] == 1
        delta = METRICS.delta(before, METRICS.counters_snapshot())
        assert delta.get("store.fallbacks", 0) >= 1

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
        out = run_job(payload)
        assert out["status"] == "ok"
        assert out["meta"]["store_fallback"]["error_type"] == "StoreMissError"

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

    def test_resolved_source_payload_bytes(self):
        npz = ResolvedSource(fingerprint="f" * 64, n=10, m=5, npz=b"x" * 100)
        key = ResolvedSource(fingerprint="f" * 64, n=10, m=5, store_root="/s")
        assert npz.payload_bytes == 100
        assert key.payload_bytes == 64 + 2
