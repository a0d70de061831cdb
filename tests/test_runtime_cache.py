"""ResultCache: hit/miss/eviction semantics and cross-process determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.api import SolveRequest, solve
from repro.graphs import GraphSource, gnp_random_graph, graph_fingerprint
from repro.runtime import ResultCache, Scheduler

from test_runtime_spec import subprocess_env


def put_dummy(cache: ResultCache, key: str, size: int = 4) -> None:
    cache.put(
        key,
        job={"status": "ok", "solution_size": size},
        arrays={"solution": np.arange(size, dtype=np.int64)},
    )


def test_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get("a" * 64) is None
    assert "a" * 64 not in cache and len(cache) == 0
    put_dummy(cache, "a" * 64)
    entry = cache.get("a" * 64)
    assert entry is not None
    assert "a" * 64 in cache and len(cache) == 1
    assert entry.job["solution_size"] == 4
    assert np.array_equal(entry.arrays()["solution"], np.arange(4))
    assert entry.load_result() is None  # no records payload stored


def test_lru_eviction(tmp_path):
    cache = ResultCache(tmp_path, max_entries=2)
    put_dummy(cache, "k1")
    put_dummy(cache, "k2")
    assert cache.get("k1") is not None  # refresh k1 => k2 is now LRU
    put_dummy(cache, "k3")
    assert cache.keys() == ["k1", "k3"]
    assert len(cache) == 2
    assert cache.get("k2") is None  # evicted
    assert cache.get("k1") is not None
    assert cache.get("k3") is not None
    # evicted object files are gone from disk
    assert not (tmp_path / "objects" / "k2.json").exists()
    assert not (tmp_path / "objects" / "k2.npz").exists()


def test_persistence_across_instances(tmp_path):
    first = ResultCache(tmp_path)
    put_dummy(first, "k1")
    first.get("k1")  # a hit stamps the meta file's mtime
    second = ResultCache(tmp_path)
    assert len(second) == 1
    entry = second.get("k1")
    assert entry is not None
    assert np.array_equal(entry.arrays()["solution"], np.arange(4))


def test_clear(tmp_path):
    cache = ResultCache(tmp_path)
    put_dummy(cache, "k1")
    put_dummy(cache, "k2")
    assert cache.clear() == 2
    assert len(cache) == 0
    assert cache.get("k1") is None
    assert len(ResultCache(tmp_path)) == 0


def test_index_compaction_preserves_entries(tmp_path):
    cache = ResultCache(tmp_path, max_entries=4)
    for i in range(40):  # put+evict churn; a fresh instance lists the survivors
        put_dummy(cache, f"key{i:03d}")
    assert len(cache) == 4
    again = ResultCache(tmp_path, max_entries=4)
    assert sorted(again.keys()) == sorted(cache.keys())


def test_full_result_payload_round_trip_through_cache(tmp_path):
    """A stored SolveResult envelope comes back whole, down to the raw
    result's per-iteration records."""
    g = gnp_random_graph(60, 0.1, seed=3)
    res = solve(SolveRequest(problem="mis", graph=g))
    meta, arrays = res.to_payload()
    cache = ResultCache(tmp_path)
    cache.put("k", job={"status": "ok"}, arrays=arrays, result_meta=meta)
    loaded = cache.get("k").load_result()
    assert np.array_equal(loaded.solution, res.solution)
    assert (loaded.rounds, loaded.words_moved) == (res.rounds, res.words_moved)
    assert loaded.snapshot == res.snapshot
    assert np.array_equal(loaded.raw.independent_set, res.raw.independent_set)
    assert loaded.raw.records == res.raw.records
    assert loaded.raw.rounds == res.raw.rounds


@pytest.mark.parametrize("problem", ["mis", "matching"])
def test_cached_result_identical_across_processes(tmp_path, problem):
    """Store via the scheduler here; a fresh process must read back the
    byte-identical solution for the same spec."""
    spec = SolveRequest(
        problem, source=GraphSource.generator("gnp_random_graph", n=80, p=0.08, seed=5)
    )
    cache = ResultCache(tmp_path / "cache")
    batch = Scheduler(workers=1, cache=cache).run([spec])
    assert batch.all_ok and batch.stats.cache_hits == 0
    key = spec.cache_key(graph_fingerprint(spec.source.resolve()))
    local = cache.get(key).arrays()["solution"]

    script = (
        "import sys, hashlib, json\n"
        "from repro.api import SolveRequest\n"
        "from repro.runtime import ResultCache\n"
        "from repro.graphs import graph_fingerprint\n"
        "cache_dir, spec_json = sys.argv[1], sys.stdin.read()\n"
        "spec = SolveRequest.from_dict(json.loads(spec_json))\n"
        "cache = ResultCache(cache_dir)\n"
        "key = spec.cache_key(graph_fingerprint(spec.source.resolve()))\n"
        "arr = cache.get(key).arrays()['solution']\n"
        "print(key)\n"
        "print(hashlib.sha256(arr.tobytes()).hexdigest())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "cache")],
        input=json.dumps(spec.to_dict()),
        capture_output=True,
        text=True,
        check=True,
        env=subprocess_env(),
    )
    child_key, child_digest = proc.stdout.split()
    assert child_key == key
    import hashlib

    assert child_digest == hashlib.sha256(local.tobytes()).hexdigest()


# ---------------------------------------------------------------------- #
# Concurrency contract (the serve layer makes concurrent access the norm)
# ---------------------------------------------------------------------- #


def test_torn_meta_entry_is_a_miss_not_a_crash(tmp_path):
    cache = ResultCache(tmp_path)
    put_dummy(cache, "a" * 64)
    # Simulate crash debris / out-of-band tampering: a truncated meta file.
    (cache.objects_dir / f"{'a' * 64}.json").write_text('{"job": {"sta')
    assert cache.get("a" * 64) is None  # tolerant read: miss, no raise
    assert "a" * 64 not in cache
    assert len(ResultCache(tmp_path)) == 0  # its files went with it
    put_dummy(cache, "a" * 64)  # and the slot is reusable afterwards
    assert cache.get("a" * 64) is not None


def test_put_leaves_no_tmp_files(tmp_path):
    cache = ResultCache(tmp_path)
    put_dummy(cache, "b" * 64)
    leftovers = [p.name for p in cache.objects_dir.iterdir() if "tmp" in p.name]
    assert leftovers == []  # atomic renames: nothing half-written survives


def test_concurrent_threads_share_one_cache_instance(tmp_path):
    """The serve solve threads and event loop share one ResultCache; a
    storm of interleaved get/put from many threads must neither raise nor
    corrupt entries."""
    import threading

    cache = ResultCache(tmp_path, max_entries=16)
    keys = [format(i, "064x") for i in range(8)]
    errors: list[Exception] = []

    def hammer(worker: int) -> None:
        try:
            for round_no in range(30):
                key = keys[(worker + round_no) % len(keys)]
                if (worker + round_no) % 3 == 0:
                    put_dummy(cache, key, size=4)
                else:
                    entry = cache.get(key)
                    if entry is not None:
                        assert entry.job["solution_size"] == 4
                        assert len(entry.arrays()["solution"]) == 4
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    # Every surviving entry is whole: readable meta + loadable arrays.
    for key in cache.keys():
        entry = cache.get(key)
        assert entry is not None and len(entry.arrays()["solution"]) == 4


def test_fresh_reader_sees_writers_entries(tmp_path):
    writer = ResultCache(tmp_path)
    put_dummy(writer, "c" * 64)
    reader = ResultCache(tmp_path)  # lists the objects directory on open
    entry = reader.get("c" * 64)
    assert entry is not None
    assert np.array_equal(entry.arrays()["solution"], np.arange(4))


# ---------------------------------------------------------------------- #
# The objects directory is the index
# ---------------------------------------------------------------------- #


def test_two_writers_on_one_directory_lose_nothing(tmp_path):
    """Each writer stamps its own files: however often one of them hits,
    a fresh instance lists every entry, least recently used first."""
    one, two = ResultCache(tmp_path), ResultCache(tmp_path)
    for i in range(3):
        put_dummy(one, f"one{i}")
        put_dummy(two, f"two{i}")
    for _ in range(100):
        assert one.get("one0") is not None
    fresh = ResultCache(tmp_path)
    assert fresh.keys() == ["two0", "one1", "two1", "one2", "two2", "one0"]
    assert all(fresh.get(key) is not None for key in fresh.keys())
    assert ResultCache(tmp_path).clear() == 6
    assert list((tmp_path / "objects").iterdir()) == []


def test_lru_order_survives_a_reopen(tmp_path):
    first = ResultCache(tmp_path, max_entries=3)
    for key in ("k1", "k2", "k3"):
        put_dummy(first, key)
    assert first.get("k1") is not None  # k2 is now least recently used
    again = ResultCache(tmp_path, max_entries=3)
    put_dummy(again, "k4")
    assert again.keys() == ["k3", "k1", "k4"]
    assert not (tmp_path / "objects" / "k2.json").exists()
    assert not (tmp_path / "objects" / "k2.npz").exists()


def test_an_old_index_log_is_ignored(tmp_path):
    cache = ResultCache(tmp_path)
    for key in ("k1", "k2", "k3"):
        put_dummy(cache, key)
    log = {"op": "put", "key": "k2", "at": 0.0}
    (tmp_path / "index.jsonl").write_text(json.dumps(log) + "\n")
    again = ResultCache(tmp_path)
    assert again.keys() == ["k1", "k2", "k3"]
    assert all(again.get(key) is not None for key in ("k1", "k2", "k3"))
