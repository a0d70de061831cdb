"""Tracing and metrics through the runtime layer and the trace CLI.

Covers the worker/scheduler plumbing: per-job traces captured inside pool
processes ride back through ``result_meta`` and land next to the cached
arrays; cache hits report lookup accounting in ``JobResult.meta`` instead
of overwriting the stored solve's ``wall_time``.
"""

from __future__ import annotations

import json

from repro.__main__ import main
from repro.api import SolveRequest
from repro.graphs import GraphSource
from repro.runtime import JobResult, ResultCache, Scheduler


def gnp_spec(problem="mis", n=50, seed=3, **kw) -> SolveRequest:
    return SolveRequest(
        problem,
        source=GraphSource.generator("gnp_random_graph", n=n, p=0.1, seed=seed),
        **kw,
    )


# --------------------------------------------------------------------- #
# Worker-side capture through the process pool
# --------------------------------------------------------------------- #


def test_traced_batch_ships_spans_through_pool(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    sched = Scheduler(workers=2, cache=cache, trace=True)
    batch = sched.run([gnp_spec(seed=1), gnp_spec(seed=2)])
    assert batch.all_ok
    for res in batch.results:
        assert res.meta.get("trace_spans", 0) > 0
    # The spans themselves were stored with the cached result.
    for spec, res in zip(
        [gnp_spec(seed=1), gnp_spec(seed=2)], batch.results
    ):
        entry = cache.get(spec.cache_key(res.fingerprint))
        assert entry is not None
        spans = entry.trace()
        assert spans and any(s["name"] == "solve" for s in spans)
        rebuilt = entry.load_result()
        assert rebuilt.trace == spans


def test_untraced_batch_has_no_trace_meta(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    batch = Scheduler(workers=1, cache=cache, trace=False).run([gnp_spec()])
    (res,) = batch.results
    assert res.ok
    assert "trace_spans" not in res.meta
    entry = cache.get(gnp_spec().cache_key(res.fingerprint))
    assert entry is not None and entry.trace() is None


def test_scheduler_trace_default_follows_ambient_tracing(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    from repro.obs import trace as obs_trace

    obs_trace.refresh_env()
    assert Scheduler().trace is False
    monkeypatch.setenv("REPRO_TRACE", "1")
    obs_trace.refresh_env()
    try:
        assert Scheduler().trace is True
    finally:
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        obs_trace.refresh_env()
    assert Scheduler(trace=False).trace is False


# --------------------------------------------------------------------- #
# Cache-hit accounting
# --------------------------------------------------------------------- #


def test_cache_hit_meta_preserves_stored_wall_time(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    sched = Scheduler(workers=1, cache=cache)
    spec = gnp_spec()
    (first,) = sched.run([spec]).results
    assert first.ok and not first.cache_hit
    assert first.meta.get("cache_hit") is None

    batch = sched.run([spec])
    (hit,) = batch.results
    assert hit.cache_hit
    assert hit.meta["cache_hit"] is True
    assert hit.meta["lookup_time"] >= 0.0
    # The stored solve's wall_time survives; lookup cost is separate.
    assert hit.wall_time == first.wall_time
    assert batch.stats.cache_hits == 1
    assert batch.stats.cache_misses == 0


def test_batch_stats_counts_misses_and_payload(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    sched = Scheduler(workers=1, cache=cache)
    stats = sched.run([gnp_spec(seed=1), gnp_spec(seed=2)]).stats
    assert stats.cache_misses == 2 and stats.cache_hits == 0
    payload = sched.run([gnp_spec(seed=1), gnp_spec(seed=3)]).stats.to_dict()
    assert payload["cache_hits"] == 1
    assert payload["cache_misses"] == 1
    assert json.loads(json.dumps(payload)) == payload


def test_uncached_scheduler_counts_no_misses():
    stats = Scheduler(workers=1).run([gnp_spec()]).stats
    assert stats.cache_hits == 0 and stats.cache_misses == 0


# --------------------------------------------------------------------- #
# JobResult meta round trip
# --------------------------------------------------------------------- #


def test_job_result_meta_json_roundtrip():
    res = JobResult(
        spec=gnp_spec(),
        meta={"cache_hit": True, "lookup_time": 0.001, "trace_spans": 7},
    )
    back = JobResult.from_dict(json.loads(res.to_json()))
    assert back.meta == res.meta


def test_job_result_meta_defaults_empty():
    res = JobResult(spec=gnp_spec())
    assert res.meta == {}
    assert JobResult.from_dict(res.to_dict()).meta == {}


# --------------------------------------------------------------------- #
# `repro trace` CLI
# --------------------------------------------------------------------- #


def test_trace_record_summarize_export_cli(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    perfetto_path = tmp_path / "t.perfetto.json"
    rc = main(
        [
            "trace", "record",
            "--problem", "mis", "--model", "mpc-engine",
            "--n", "80", "--p", "0.08",
            "--out", str(trace_path),
            "--perfetto", str(perfetto_path),
        ]
    )
    assert rc == 0
    assert "engine.round" in capsys.readouterr().out

    doc = json.loads(perfetto_path.read_text())
    assert any(
        e["name"] == "engine.round" and e["ph"] == "X"
        for e in doc["traceEvents"]
    )

    assert main(["trace", "summarize", str(trace_path)]) == 0
    assert "engine.round" in capsys.readouterr().out

    summary_json = tmp_path / "summary.json"
    assert main(
        ["trace", "summarize", str(trace_path), "--json", str(summary_json)]
    ) == 0
    summary = json.loads(summary_json.read_text())
    assert summary["by_name"]["engine.round"]["count"] > 0

    assert main(["trace", "top", str(trace_path), "-k", "3"]) == 0
    assert main(
        ["trace", "diff", str(trace_path), str(trace_path)]
    ) == 0

    out2 = tmp_path / "t2.perfetto.json"
    assert main(["trace", "export", str(trace_path), "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["traceEvents"]


def test_trace_summarize_json_stdout(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    main(
        [
            "trace", "record", "--problem", "mis", "--model", "simulated",
            "--n", "60", "--p", "0.08", "--out", str(trace_path),
        ]
    )
    capsys.readouterr()
    assert main(["trace", "summarize", str(trace_path), "--json", "-"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["spans"] > 0


def test_trace_conformance_cli(capsys):
    rc = main(
        [
            "trace", "conformance",
            "--problem", "mis", "--model", "simulated",
            "--sizes", "48,96", "--reps", "2",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "rounds" in out and "words_moved" in out


def test_trace_conformance_all_cli(capsys):
    """--all sweeps the full registry matrix and exits 0 when claims hold."""
    from repro.api import REGISTRY

    rc = main(
        ["trace", "conformance", "--all", "--sizes", "32,64", "--reps", "1"]
    )
    out = capsys.readouterr().out
    assert rc == 0, out
    assert f"{len(REGISTRY.entries())} registry entries" in out
    for entry in REGISTRY.entries():
        assert f"{entry.problem}/{entry.model}" in out
    assert "FAIL" not in out


def test_trace_conformance_all_json(tmp_path, capsys):
    rc = main(
        [
            "trace", "conformance", "--all",
            "--sizes", "32,64", "--reps", "1", "--json", "-",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0, out
    payload = json.loads(out[out.index("{"):])
    from repro.api import REGISTRY

    assert len(payload["reports"]) == len(REGISTRY.entries())
    assert all(r["conformant"] is not False for r in payload["reports"])


def test_solve_json_stdout(capsys):
    rc = main(
        [
            "solve", "--problem", "mis",
            "--model", "simulated", "--n", "60", "--p", "0.08",
            "--json", "-",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["problem"] == "mis"


def test_env_trace_writes_jsonl_through_solve_cli(tmp_path, monkeypatch):
    from repro.obs import trace as obs_trace

    dest = tmp_path / "env.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(dest))
    obs_trace.refresh_env()
    try:
        rc = main(
            [
                "solve", "--problem", "mis",
                "--model", "simulated", "--n", "50", "--p", "0.1",
            ]
        )
    finally:
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        obs_trace.refresh_env()
    assert rc == 0
    from repro.obs.sinks import read_jsonl

    spans = read_jsonl(dest)
    assert any(s["name"] == "solve" for s in spans)
