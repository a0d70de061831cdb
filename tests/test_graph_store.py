"""Out-of-core graph store: streaming bit-identity, shard build, integrity.

The load-bearing property is **bit-identity**: a streamed generator and its
in-memory twin must produce byte-identical canonical arrays (hence the same
content fingerprint) for every seed, or the store's content addressing would
silently fork the cache.  Hypothesis drives the seeds; the shard builder is
additionally forced through multi-shard plans via a tiny shard target.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphs.store as store_mod
from repro.graphs import (
    Graph,
    GraphStore,
    StoreCorruptError,
    StoreMissError,
    complete_graph,
    gnp_block_graph,
    gnp_random_graph,
    graph_fingerprint,
    open_stored_graph,
)
from repro.graphs.generators import (
    bounded_degree_graph,
    power_law_graph,
    random_regular_graph,
)
from repro.graphs.io import graph_fingerprint_stream
from repro.graphs.store import (
    NpyAppendWriter,
    build_csr_shards,
    by_last_use,
    mark_used,
)
from repro.graphs.streaming import (
    STREAMING_GENERATORS,
    _triu_pair_of_flat,
    stream_blocks,
)
from repro.obs.metrics import METRICS

ARRAYS = ("edges_u", "edges_v", "indptr", "indices", "arc_edge_ids")


def graph_from_stream(name: str, **kwargs) -> Graph:
    blocks = [b for b in stream_blocks(name, **kwargs) if b.size]
    edges = (
        np.concatenate(blocks) if blocks else np.empty((0, 2), dtype=np.int64)
    )
    return Graph.from_edges(kwargs["n"], edges)


def gnp_reference(n: int, p: float, seed: int) -> Graph:
    """G(n, p) from one Bernoulli mask over the whole upper triangle."""
    if n <= 1 or p == 0.0:
        return Graph.empty(max(n, 0))
    iu = np.triu_indices(n, k=1)
    mask = np.random.default_rng(seed).random(iu[0].size) < p
    return Graph.from_edges(n, np.stack([iu[0][mask], iu[1][mask]], axis=1))


def regular_reference(n: int, d: int, seed: int) -> Graph:
    """Stub matching over one shuffled ``n * d`` stub array."""
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    rng.shuffle(stubs)
    return Graph.from_edges(n, stubs.reshape(-1, 2))


def bounded_degree_reference(n: int, max_deg: int, p_fill: float, seed: int) -> Graph:
    """Greedy capped insertion from batched candidate draws, one edge list."""
    rng = np.random.default_rng(seed)
    target_edges = int(p_fill * n * max_deg / 2)
    deg = np.zeros(n, dtype=np.int64)
    chosen: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    attempts = 0
    while len(chosen) < target_edges and attempts < 20:
        attempts += 1
        us = rng.integers(0, n, size=4 * max(target_edges, 1))
        vs = rng.integers(0, n, size=4 * max(target_edges, 1))
        for u, v in zip(us.tolist(), vs.tolist()):
            if u == v:
                continue
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in seen:
                continue
            if deg[a] >= max_deg or deg[b] >= max_deg:
                continue
            seen.add((a, b))
            deg[a] += 1
            deg[b] += 1
            chosen.append((a, b))
            if len(chosen) >= target_edges:
                break
    return Graph.from_edges(n, np.asarray(chosen, dtype=np.int64).reshape(-1, 2))


def power_law_reference(n: int, attach: int, seed: int) -> Graph:
    """Preferential attachment from a clique on ``attach + 1`` nodes."""
    rng = np.random.default_rng(seed)
    m0 = attach + 1
    if n <= m0:
        return complete_graph(max(n, 0))
    iu = np.triu_indices(m0, k=1)
    edges_u = list(iu[0].astype(np.int64))
    edges_v = list(iu[1].astype(np.int64))
    endpoint_pool: list[int] = edges_u + edges_v
    for new in range(m0, n):
        targets: set[int] = set()
        while len(targets) < attach:
            targets.add(endpoint_pool[int(rng.integers(0, len(endpoint_pool)))])
        for t in targets:
            edges_u.append(t)
            edges_v.append(new)
            endpoint_pool.append(t)
            endpoint_pool.append(new)
    return Graph.from_edges(
        n, np.stack([np.asarray(edges_u), np.asarray(edges_v)], axis=1)
    )


def assert_same_graph(a: Graph, b: Graph) -> None:
    assert a.n == b.n
    for name in ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert graph_fingerprint(a) == graph_fingerprint(b)


# --------------------------------------------------------------------- #
# Streaming bit-identity vs the in-memory generators
# --------------------------------------------------------------------- #


class TestStreamingBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 120),
        p=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**31),
    )
    def test_gnp_stream_matches_in_memory(self, n, p, seed):
        expected = gnp_reference(n, p, seed)
        assert_same_graph(expected, gnp_random_graph(n, p, seed=seed))
        got = graph_from_stream("gnp_random_graph", n=n, p=p, seed=seed)
        assert_same_graph(expected, got)

    def test_gnp_across_stream_blocks_matches_reference(self):
        # 3000 * 2999 / 2 pairs span two default 2^22-pair stream blocks.
        assert_same_graph(
            gnp_reference(3000, 0.002, 5), gnp_random_graph(3000, 0.002, seed=5)
        )

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(2, 100), seed=st.integers(0, 2**31))
    def test_gnp_stream_chunking_invariance(self, n, seed):
        # Tiny blocks vs one big block: same Bernoulli stream, same graph.
        from repro.graphs.streaming import stream_gnp_random_graph

        small = np.concatenate(
            list(stream_gnp_random_graph(n, 0.15, seed, block_pairs=7))
        )
        big = np.concatenate(
            list(stream_gnp_random_graph(n, 0.15, seed, block_pairs=1 << 22))
        )
        assert np.array_equal(small, big)

    @settings(max_examples=15, deadline=None)
    @given(
        nd=st.sampled_from([(10, 3), (24, 4), (60, 3), (80, 6)]),
        seed=st.integers(0, 2**31),
    )
    def test_regular_stream_matches_in_memory(self, nd, seed):
        n, d = nd
        expected = regular_reference(n, d, seed)
        assert_same_graph(expected, random_regular_graph(n, d, seed=seed))
        got = graph_from_stream("random_regular_graph", n=n, d=d, seed=seed)
        assert_same_graph(expected, got)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(4, 90),
        max_deg=st.integers(1, 6),
        seed=st.integers(0, 2**31),
    )
    def test_bounded_degree_stream_matches_in_memory(self, n, max_deg, seed):
        expected = bounded_degree_reference(n, max_deg, 0.7, seed)
        assert_same_graph(expected, bounded_degree_graph(n, max_deg, 0.7, seed=seed))
        got = graph_from_stream(
            "bounded_degree_graph", n=n, max_deg=max_deg, p_fill=0.7, seed=seed
        )
        assert_same_graph(expected, got)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(2, 90),
        attach=st.integers(1, 4),
        seed=st.integers(0, 2**31),
    )
    def test_power_law_stream_matches_in_memory(self, n, attach, seed):
        expected = power_law_reference(n, attach, seed)
        assert_same_graph(expected, power_law_graph(n, attach, seed=seed))
        got = graph_from_stream(
            "power_law_graph", n=n, attach=attach, seed=seed
        )
        assert_same_graph(expected, got)

    def test_small_block_flush_boundaries(self):
        # Force mid-stream flushes in the sequential generators.
        from repro.graphs.streaming import (
            stream_bounded_degree_graph,
            stream_power_law_graph,
        )

        a = np.concatenate(
            list(stream_power_law_graph(50, 2, 3, block_edges=5))
        )
        b = np.concatenate(list(stream_power_law_graph(50, 2, 3)))
        assert np.array_equal(a, b)
        a = np.concatenate(
            list(stream_bounded_degree_graph(40, 4, 0.8, 3, block_edges=3))
        )
        b = np.concatenate(list(stream_bounded_degree_graph(40, 4, 0.8, 3)))
        assert np.array_equal(a, b)

    def test_gnp_block_graph_is_a_registered_generator(self):
        from repro.graphs.source import GENERATOR_NAMES, GraphSource

        assert "gnp_block_graph" in GENERATOR_NAMES
        src = GraphSource.generator("gnp_block_graph", n=64, p=0.1, seed=2)
        assert_same_graph(src.resolve(), gnp_block_graph(64, 0.1, 2))

    def test_every_streaming_generator_has_a_twin(self):
        import repro.graphs.generators as gens

        for name in STREAMING_GENERATORS:
            assert hasattr(gens, name)


class TestTriuInverse:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 200))
    def test_matches_triu_indices(self, n):
        iu, ju = np.triu_indices(n, k=1)
        flat = np.arange(iu.size, dtype=np.int64)
        i, j = _triu_pair_of_flat(n, flat)
        assert np.array_equal(i, iu)
        assert np.array_equal(j, ju)


# --------------------------------------------------------------------- #
# npy writer + sharded CSR build
# --------------------------------------------------------------------- #


class TestNpyAppendWriter:
    def test_roundtrip_and_mmap(self, tmp_path):
        path = tmp_path / "a.npy"
        w = NpyAppendWriter(path)
        w.append(np.arange(5))
        w.append(np.arange(5, 12))
        w.close()
        arr = np.load(path)
        assert np.array_equal(arr, np.arange(12))
        mm = np.load(path, mmap_mode="r")
        assert isinstance(mm, np.memmap) and not mm.flags.writeable
        assert np.array_equal(np.asarray(mm), np.arange(12))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.npy"
        w = NpyAppendWriter(path)
        w.close()
        assert np.load(path).size == 0


class TestShardedBuild:
    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(2, 150),
        p=st.floats(0.01, 0.2),
        seed=st.integers(0, 1000),
    )
    def test_multi_shard_build_matches_from_edges(self, n, p, seed):
        # Tiny shard target forces many shards; the written arrays must be
        # byte-identical to the one-shot in-memory construction.  Fixtures
        # are function-scoped (a hypothesis health-check violation under
        # @given), so the patch and temp dir are managed inline.
        import shutil
        import tempfile
        from pathlib import Path

        saved = store_mod.TARGET_ARCS_PER_SHARD
        store_mod.TARGET_ARCS_PER_SHARD = 64
        out = Path(tempfile.mkdtemp(prefix="shards-"))
        try:
            expected = gnp_random_graph(n, p, seed=seed)
            meta = build_csr_shards(
                out,
                n,
                stream_blocks("gnp_random_graph", n=n, p=p, seed=seed),
                est_edges=expected.m,
            )
            assert meta["m"] == expected.m
            got = Graph.from_mmap(n, out, validate=True)
            assert_same_graph(expected, got)
            fp = graph_fingerprint_stream(
                n,
                [np.load(out / "edges_u.npy", mmap_mode="r")],
                [np.load(out / "edges_v.npy", mmap_mode="r")],
            )
            assert fp == graph_fingerprint(expected)
        finally:
            store_mod.TARGET_ARCS_PER_SHARD = saved
            shutil.rmtree(out, ignore_errors=True)

    def test_duplicate_and_loop_edges_canonicalised(self, tmp_path):
        blocks = iter(
            [
                np.array([[1, 0], [0, 1], [2, 2], [3, 1]], dtype=np.int64),
                np.array([[0, 1], [1, 3]], dtype=np.int64),
            ]
        )
        meta = build_csr_shards(tmp_path, 4, blocks)
        g = Graph.from_mmap(4, tmp_path, validate=True)
        assert meta["m"] == 2 == g.m
        assert_same_graph(
            Graph.from_edges(4, [(0, 1), (1, 3)]), g
        )

    def test_out_of_range_endpoint_rejected(self, tmp_path):
        blocks = iter([np.array([[0, 7]], dtype=np.int64)])
        with pytest.raises(ValueError, match="out of range"):
            build_csr_shards(tmp_path / "x", 4, blocks)


# --------------------------------------------------------------------- #
# GraphStore behaviour
# --------------------------------------------------------------------- #


class TestGraphStore:
    def test_put_open_roundtrip_and_dedup(self, tmp_path):
        store = GraphStore(tmp_path)
        g = gnp_random_graph(120, 0.05, seed=4)
        info = store.put_graph(g, source="test")
        assert info.fingerprint == graph_fingerprint(g)
        assert (info.n, info.m) == (g.n, g.m)
        assert len(store) == 1
        # Content-addressed: same graph again is one entry.
        store.put_graph(g)
        assert len(store) == 1
        assert_same_graph(g, store.open(info.fingerprint, validate=True))

    def test_mmap_parity_with_npz_roundtrip_on_solver_output(self, tmp_path):
        # The mmap-opened Graph must behave identically to the in-memory
        # graph it was stored from on real solver output, not just raw
        # arrays (the runtime's workers only ever see the mmap form).
        from repro.api import SolveRequest, solve

        g = gnp_random_graph(150, 0.04, seed=8)
        store = GraphStore(tmp_path)
        fp = store.put_graph(g).fingerprint
        via_store = store.open(fp)
        assert_same_graph(g, via_store)
        r1 = solve(SolveRequest(problem="mis", model="simulated", graph=via_store))
        r2 = solve(SolveRequest(problem="mis", model="simulated", graph=g))
        assert r1.verified and r2.verified
        assert r1.solution_size == r2.solution_size
        assert np.array_equal(r1.solution, r2.solution)

    def test_ensure_generator_hit_miss(self, tmp_path):
        store = GraphStore(tmp_path)
        args = dict(n=80, p=0.05, seed=3)
        miss = store.ensure_generator("gnp_random_graph", args)
        assert not miss.hit
        hit = store.ensure_generator("gnp_random_graph", args)
        assert hit.hit and hit.fingerprint == miss.fingerprint
        assert miss.fingerprint == graph_fingerprint(gnp_random_graph(**args))

    def test_open_missing_raises(self, tmp_path):
        store = GraphStore(tmp_path)
        with pytest.raises(StoreMissError):
            store.open("deadbeef")
        with pytest.raises(StoreMissError):
            open_stored_graph(tmp_path, "deadbeef")

    def test_corruption_detected_on_open_and_verify(self, tmp_path):
        store = GraphStore(tmp_path)
        fp = store.put_graph(gnp_random_graph(90, 0.06, seed=1)).fingerprint
        assert store.verify(fp) == []
        victim = store._object_dir(fp) / "indices.npy"
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) // 2])
        assert any("indices" in p for p in store.verify(fp))
        with pytest.raises(StoreCorruptError):
            open_stored_graph(tmp_path, fp)
        victim.unlink()
        with pytest.raises(StoreCorruptError, match="missing"):
            open_stored_graph(tmp_path, fp)

    def test_lru_budget_eviction_and_replay(self, tmp_path):
        store = GraphStore(tmp_path)
        fps = [
            store.put_graph(gnp_random_graph(60, 0.1, seed=s)).fingerprint
            for s in range(4)
        ]
        store.open(fps[0])  # refresh: seed-0 becomes most recent
        per = max(obj["bytes"] for obj in store.stats()["objects"])
        store.gc(max_bytes=2 * per + per // 2)
        kept = store.keys()
        assert fps[0] in kept and len(kept) == 2
        # A fresh instance lists the objects directory to the same state.
        again = GraphStore(tmp_path)
        assert again.keys() == kept
        assert again.disk_usage() == store.disk_usage()

    def test_constructor_budget_evicts_on_put(self, tmp_path):
        g0 = gnp_random_graph(60, 0.1, seed=0)
        probe = GraphStore(tmp_path / "probe")
        probe.put_graph(g0)
        store = GraphStore(tmp_path / "s", max_bytes=probe.disk_usage() + 10)
        store.put_graph(g0)
        fp1 = store.put_graph(gnp_random_graph(60, 0.1, seed=1)).fingerprint
        assert store.keys() == [fp1]

    def test_an_evicting_put_frees_a_sixteenth_beyond_the_excess(self, tmp_path):
        """The put that passes ``max_bytes`` evicts down to ``max_bytes -
        max_bytes // 16``, here two objects' worth below the budget (an
        eviction down to the budget itself stops within one object of it)."""
        graphs = [gnp_random_graph(60, 0.1, seed=s) for s in range(40)]
        probe = GraphStore(tmp_path / "probe")
        for g in graphs:
            probe.put_graph(g)
        budget = 32 * max(obj["bytes"] for obj in probe.stats()["objects"])
        store = GraphStore(tmp_path / "s", max_bytes=budget)
        before = METRICS.counters_snapshot()
        for g in graphs:
            store.put_graph(g)
            if METRICS.delta(before, METRICS.counters_snapshot()).get("store.evictions"):
                break
        assert 1 < len(store) < len(graphs)
        assert store.disk_usage() <= budget - budget // 16

    def test_eviction_drops_the_sources_files_of_what_it_evicted(self, tmp_path):
        probe = GraphStore(tmp_path / "probe")
        probe.ensure_generator("gnp_random_graph", dict(n=80, p=0.05, seed=0))
        store = GraphStore(tmp_path / "s", max_bytes=probe.disk_usage() * 3 // 2)
        for seed in range(4):
            fp = store.ensure_generator(
                "gnp_random_graph", dict(n=80, p=0.05, seed=seed)
            ).fingerprint
        assert store.keys() == [fp]
        sources = list(store.sources_dir.iterdir())
        assert [path.read_text() for path in sources] == [fp]

    def test_gc_removes_orphans_and_tmp(self, tmp_path):
        store = GraphStore(tmp_path)
        store.put_graph(gnp_random_graph(40, 0.1, seed=0))
        (store.objects_dir / ".tmp-put-dead").mkdir()
        orphan = store.objects_dir / ("f" * 64)
        orphan.mkdir()
        (orphan / "meta.json").write_text("{}")
        res = store.gc()
        assert res["removed_tmp"] == 1 and res["removed_orphans"] == 1
        assert len(store) == 1

    def test_stats_shape(self, tmp_path):
        store = GraphStore(tmp_path)
        store.put_graph(gnp_random_graph(50, 0.08, seed=2), source="lbl")
        s = store.stats()
        assert s["entries"] == 1 and s["disk_bytes"] > 0
        (obj,) = s["objects"]
        assert obj["n"] == 50 and obj["source"] == "lbl"

    def test_empty_graph_roundtrip(self, tmp_path):
        store = GraphStore(tmp_path)
        info = store.put_graph(Graph.empty(7))
        g = store.open(info.fingerprint, validate=True)
        assert g.n == 7 and g.m == 0


class TestUnreadableMeta:
    """A torn ``meta.json`` is a store miss, never a crash."""

    ARGS = dict(n=80, p=0.05, seed=3)

    def _tear(self, tmp_path) -> tuple[GraphStore, str]:
        store = GraphStore(tmp_path)
        fp = store.ensure_generator("gnp_random_graph", self.ARGS).fingerprint
        meta = store._meta_path(fp)
        meta.write_bytes(meta.read_bytes()[:40])
        return GraphStore(tmp_path), fp

    def test_read_meta_raises_corrupt(self, tmp_path):
        _, fp = self._tear(tmp_path)
        with pytest.raises(StoreCorruptError, match="meta.json unreadable"):
            store_mod.read_meta(tmp_path, fp)
        with pytest.raises(StoreCorruptError):
            open_stored_graph(tmp_path, fp)

    def test_meta_without_n_and_m_is_unreadable(self, tmp_path):
        store = GraphStore(tmp_path)
        fp = store.ensure_generator("gnp_random_graph", self.ARGS).fingerprint
        store._meta_path(fp).write_text('{"n": 80}')
        with pytest.raises(StoreCorruptError, match="meta.json unreadable"):
            store_mod.read_meta(tmp_path, fp)
        assert store.lookup(fp) is None and fp not in store

    def test_lookup_drops_the_entry_and_the_next_resolve_rebuilds(self, tmp_path):
        store, fp = self._tear(tmp_path)
        assert store.lookup(fp) is None
        assert fp not in store
        assert fp not in GraphStore(tmp_path)  # its directory went with it
        rebuilt = store.ensure_generator("gnp_random_graph", self.ARGS)
        assert not rebuilt.hit and rebuilt.fingerprint == fp
        assert store.verify(fp) == []
        assert GraphStore(tmp_path).lookup(fp).hit

    def test_verify_and_stats_report_it(self, tmp_path, capsys):
        from repro.__main__ import main

        store, fp = self._tear(tmp_path)
        assert store.verify(fp) == ["meta.json unreadable"]
        (obj,) = store.stats()["objects"]
        assert obj["fingerprint"] == fp and obj["n"] is None
        assert main(["store", "verify", "--store-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert f"CORRUPT {fp[:16]}..: meta.json unreadable" in out
        assert main(["store", "stats", "--store-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"{fp[:16]}..  n=?" in out and "meta.json unreadable" in out


class TestDirectoryIndex:
    """The objects directory is the index: a ``meta.json``'s mtime is its
    graph's last use, so an opener lists every object in LRU order."""

    def test_mark_used_stamps_the_wall_clock_in_ns(self, tmp_path, monkeypatch):
        path = tmp_path / "meta.json"
        path.write_text("{}")
        monkeypatch.setattr(store_mod.time, "time_ns", lambda: 1_700_000_000_123_456_789)
        mark_used(path)
        assert path.stat().st_mtime_ns == 1_700_000_000_123_456_789
        mark_used(tmp_path / "gone")  # removed meanwhile: left alone

    def test_by_last_use_orders_by_mtime_then_name_and_skips_the_missing(self, tmp_path):
        a, b, c = (tmp_path / name for name in "abc")
        for path, t in ((a, 7), (b, 5), (c, 5)):
            path.write_text("")
            os.utime(path, ns=(t, t))
        assert by_last_use([a, c, tmp_path / "gone", b]) == [b, c, a]

    def test_two_writers_on_one_directory_lose_nothing(self, tmp_path):
        one, two = GraphStore(tmp_path), GraphStore(tmp_path)
        fps = []
        for s in range(2):
            for store, seed in ((one, 2 * s), (two, 2 * s + 1)):
                g = gnp_random_graph(30, 0.1, seed=seed)
                fps.append(store.put_graph(g).fingerprint)
        for _ in range(100):
            one.open(fps[0])
        fresh = GraphStore(tmp_path)
        assert fresh.keys() == fps[1:] + fps[:1]  # least recently used first
        assert all(fresh.lookup(fp).hit for fp in fps)
        res = GraphStore(tmp_path).gc()
        assert res["removed_orphans"] == 0 and res["entries"] == 4
        assert sorted(p.name for p in (tmp_path / "objects").iterdir()) == sorted(fps)

    def test_an_old_index_log_is_ignored(self, tmp_path):
        store = GraphStore(tmp_path)
        fps = [
            store.put_graph(gnp_random_graph(30, 0.1, seed=s)).fingerprint
            for s in range(3)
        ]
        log = {"op": "put", "key": fps[1], "bytes": 1}
        (tmp_path / "index.jsonl").write_text(json.dumps(log) + "\n")
        again = GraphStore(tmp_path)
        assert again.keys() == fps
        assert all(again.lookup(fp).hit for fp in fps)

    def test_an_old_sources_log_is_ignored(self, tmp_path):
        """A ``sources.jsonl`` from an older version is not read: the call
        builds once more, dedups onto its existing object and hits after."""
        args = dict(n=80, p=0.05, seed=3)
        fp = GraphStore(tmp_path).put_graph(gnp_random_graph(**args)).fingerprint
        call = {"kind": "generator", "name": "gnp_random_graph", "args": args}
        digest = hashlib.sha256(
            json.dumps(call, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        row = {"source": digest, "fingerprint": fp}
        (tmp_path / "sources.jsonl").write_text(json.dumps(row) + "\n")
        store = GraphStore(tmp_path)
        assert store.lookup(fp).hit
        before = METRICS.counters_snapshot()
        assert store.ensure_generator("gnp_random_graph", args).fingerprint == fp
        assert store.ensure_generator("gnp_random_graph", args).hit
        delta = METRICS.delta(before, METRICS.counters_snapshot())
        assert (delta.get("store.shard_misses", 0), delta.get("store.shard_hits", 0)) == (1, 1)
        assert store.keys() == [fp]


class TestSharedDirectory:
    """Every read consults the disk: two instances on one directory see
    each other's objects without a reopen."""

    ARGS = dict(n=80, p=0.05, seed=3)

    def test_an_open_instance_hits_what_another_stored(self, tmp_path):
        a, b = GraphStore(tmp_path), GraphStore(tmp_path)
        fp = b.ensure_generator("gnp_random_graph", self.ARGS).fingerprint
        assert fp in a and a.keys() == [fp] and len(a) == 1
        assert a.lookup(fp).hit
        assert a.meta(fp)["n"] == 80
        assert_same_graph(gnp_random_graph(**self.ARGS), a.open(fp))
        before = METRICS.counters_snapshot()
        info = a.ensure_generator("gnp_random_graph", self.ARGS)
        delta = METRICS.delta(before, METRICS.counters_snapshot())
        assert info.hit and info.fingerprint == fp
        assert delta.get("store.shard_hits", 0) == 1
        assert delta.get("store.shard_misses", 0) == 0

    def test_an_open_instance_misses_what_another_removed(self, tmp_path):
        a, b = GraphStore(tmp_path), GraphStore(tmp_path)
        old = b.ensure_generator("gnp_random_graph", self.ARGS).fingerprint
        new = b.put_graph(gnp_random_graph(80, 0.05, seed=4)).fingerprint
        assert a.lookup(old).hit
        b.open(new)  # new is now the most recently used
        assert b.gc(max_bytes=1)["evicted"] == [old]
        assert a.lookup(old) is None and old not in a and a.keys() == [new]
        with pytest.raises(StoreMissError):
            a.open(old)
        with pytest.raises(StoreMissError):
            a.meta(old)
        rebuilt = a.ensure_generator("gnp_random_graph", self.ARGS)
        assert not rebuilt.hit and rebuilt.fingerprint == old

    def test_gc_skips_sources_files_another_instance_removed(
        self, tmp_path, monkeypatch
    ):
        """``b`` removes the ``sources/`` files that ``a.gc()`` has listed
        but not read yet: ``a`` skips them instead of raising."""
        a, b = GraphStore(tmp_path), GraphStore(tmp_path)
        fp = b.ensure_generator("gnp_random_graph", self.ARGS).fingerprint
        iterdir = type(a.sources_dir).iterdir

        def listed_then_removed(path):
            listed = list(iterdir(path))
            if path == a.sources_dir:
                for source in listed:
                    source.unlink()
            return iter(listed)

        monkeypatch.setattr(type(a.sources_dir), "iterdir", listed_then_removed)
        assert a.gc()["entries"] == 1
        monkeypatch.undo()
        assert a.keys() == [fp] and list(a.sources_dir.iterdir()) == []

    def test_gc_spares_a_build_in_progress(self, tmp_path):
        """``b.gc()`` runs while ``a.put_stream`` waits mid-stream in a
        thread: the build directory is left alone and the build lands."""
        import threading

        a, b = GraphStore(tmp_path), GraphStore(tmp_path)
        g = gnp_random_graph(**self.ARGS)
        edges = g.edge_array()
        streaming, release = threading.Event(), threading.Event()
        result: dict = {}

        def blocks():
            yield edges[: g.m // 2]
            streaming.set()
            release.wait(timeout=30)
            yield edges[g.m // 2 :]

        def build() -> None:
            try:
                result["info"] = a.put_stream(g.n, blocks(), est_edges=g.m)
            except Exception as exc:  # pragma: no cover - failure path
                result["error"] = exc

        thread = threading.Thread(target=build)
        thread.start()
        try:
            assert streaming.wait(timeout=30)
            building = [p.name for p in a.objects_dir.iterdir()]
            assert [name.split("-")[2] for name in building] == [str(os.getpid())]
            summary = b.gc()
        finally:
            release.set()
            thread.join(timeout=30)
        assert summary["removed_tmp"] == 0
        assert "error" not in result
        fp = result["info"].fingerprint
        assert b.keys() == [fp]
        assert_same_graph(g, b.open(fp))

    def test_gc_removes_the_build_dirs_of_dead_writers(self, tmp_path):
        """A build directory whose writer has exited, or whose name carries
        no pid (older builds' debris), is removed; a running writer's is
        kept."""
        import subprocess
        import sys

        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped: its pid names no process
        store = GraphStore(tmp_path)
        dead = store.objects_dir / f".tmp-put-{child.pid}-x"
        bare = store.objects_dir / ".tmp-put-x"
        live = store.objects_dir / f".tmp-put-{os.getpid()}-x"
        for path in (dead, bare, live):
            path.mkdir()
        assert store.gc()["removed_tmp"] == 2
        assert not dead.exists() and not bare.exists() and live.is_dir()

    def test_concurrent_builds_of_one_graph(self, tmp_path):
        """Two instances build the same 20 graphs at once from their own
        threads: no call raises, each graph is one object, and both
        instances name the same fingerprint for it."""
        import sys
        import threading

        stores = [GraphStore(tmp_path), GraphStore(tmp_path)]
        fps: list[list[str]] = [[], []]
        errors: list[Exception] = []

        def build(i: int) -> None:
            for seed in range(20):
                args = {"n": 3000, "p": 8 / 3000, "seed": seed}
                try:
                    info = stores[i].ensure_generator("gnp_block_graph", args)
                    fps[i].append(info.fingerprint)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

        threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two builds' renames
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert fps[0] == fps[1] and len(set(fps[0])) == 20
        objects = sorted(p.name for p in stores[0].objects_dir.iterdir())
        assert objects == sorted(fps[0])
        assert all(stores[1].verify(fp) == [] for fp in fps[0])
