"""SolveRequest as a batch job: serialization, digests, JobResult round
trips, and fingerprint determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.api import REGISTRY, SolveRequest
from repro.core import result_from_payload, result_to_payload
from repro.core.api import maximal_independent_set, maximal_matching
from repro.graphs import (
    GraphSource,
    gnp_random_graph,
    graph_fingerprint,
    write_edge_list,
)
from repro.runtime import JobResult


def subprocess_env() -> dict:
    """Env for child interpreters: make the in-test repro package importable."""
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return env


def make_spec(**kw) -> SolveRequest:
    base = dict(
        problem="mis",
        source=GraphSource.generator("gnp_random_graph", n=60, p=0.1, seed=3),
        eps=0.5,
        tag="t",
    )
    base.update(kw)
    return SolveRequest(**base)


def json_round_trip(request: SolveRequest) -> SolveRequest:
    return SolveRequest.from_dict(json.loads(json.dumps(request.to_dict())))


# ---------------------------------------------------------------------- #
# SolveRequest as a job spec
# ---------------------------------------------------------------------- #


def test_jobspec_json_round_trip():
    for spec in (
        make_spec(force="lowdeg", paper_rule=True, overrides={"strategy": "best_of"}),
        make_spec(model="cclique", overrides={"c": 2}, options={"charge_mode": "chps"}),
    ):
        again = json_round_trip(spec)
        assert again == spec
        assert hash(again) == hash(spec)
        assert again.solve_digest() == spec.solve_digest()


def test_jobspec_file_source_round_trip(tmp_path):
    path = tmp_path / "g.edges"
    write_edge_list(gnp_random_graph(30, 0.2, seed=1), path)
    spec = SolveRequest("matching", source=GraphSource.from_file(str(path)))
    again = json_round_trip(spec)
    assert again == spec
    assert again.source.resolve() == spec.source.resolve()


def test_jobspec_rejects_unknown_problem_and_generator():
    with pytest.raises(ValueError, match="unknown problem"):
        make_spec(problem="tsp")
    with pytest.raises(ValueError, match="unknown generator"):
        GraphSource.generator("no_such_generator", n=3)


def test_request_refuses_unregistered_pairs_and_unknown_override_keys():
    """Construction names the culprit, so a batch, the wire and ``solve``
    all refuse the same request before any graph is built."""
    with pytest.raises(ValueError, match=r"\('vc', 'cclique'\).*mis/cclique"):
        make_spec(problem="vc", model="cclique")
    for bad in ({"charge_mode": "chps"}, {"eps": 0.3}, {"check_invariants": True}):
        with pytest.raises(ValueError, match="unknown overrides keys") as info:
            make_spec(overrides=bad)
        assert str(sorted(bad)) in str(info.value)
    with pytest.raises(ValueError, match="graph or a source"):
        make_spec(graph=gnp_random_graph(10, 0.2, seed=1))
    # Values are checked where the solve runs, not at construction.
    assert make_spec(eps=-1.0, overrides={"c": 3}).eps == -1.0


@pytest.mark.parametrize(
    "kw, field",
    [
        (dict(model="cclique", force="general"), "force"),
        (dict(problem="vc", paper_rule=True), "paper_rule"),
        (dict(force="bogus"), "force"),
        (dict(model="cclique", options={"charge_mod": "chps"}), "charge_mod"),
        (dict(model="congest", options={"charge_mode": "chps"}), "charge_mode"),
        (dict(options={"mode": "voting"}), "mode"),
    ],
)
def test_request_refuses_what_its_entry_does_not_read(kw, field):
    """``force`` and ``paper_rule`` need the entry's ``force_path``
    capability, ``force`` takes only the two path names, and ``options``
    keys must be ones the entry declares; each refusal names the field."""
    with pytest.raises(ValueError, match=field):
        make_spec(**kw)


def test_entries_declare_the_options_they_read():
    declared = {e.key: e.options for e in REGISTRY.entries() if e.options}
    assert declared == {
        ("coloring", "simulated"): ("num_colors",),
        ("matching", "cclique"): ("charge_mode",),
        ("matching", "congest"): ("mode",),
        ("mis", "cclique"): ("charge_mode",),
        ("mis", "congest"): ("mode",),
    }
    forced = {e.key for e in REGISTRY.entries() if e.capabilities.force_path}
    assert forced == {("matching", "simulated"), ("mis", "simulated")}


def test_solve_digest_ignores_source_but_not_params():
    a = make_spec()
    b = make_spec(source=GraphSource.generator("path_graph", n=9), tag="other")
    assert a.solve_digest() == b.solve_digest()  # source and tag excluded
    assert a != b
    assert a.solve_digest() != make_spec(eps=0.6).solve_digest()
    assert a.solve_digest() != make_spec(force="general").solve_digest()
    assert a.solve_digest() != make_spec(overrides={"c": 2}).solve_digest()
    assert a.solve_digest() != make_spec(model="cclique").solve_digest()
    cc = make_spec(model="cclique")
    chps = make_spec(model="cclique", options={"charge_mode": "chps"})
    assert cc.solve_digest() != chps.solve_digest()


def test_cache_key_is_content_addressed(tmp_path):
    """Same graph content via generator vs file => same cache key."""
    g = gnp_random_graph(40, 0.15, seed=7)
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    gen_spec = make_spec(
        source=GraphSource.generator("gnp_random_graph", n=40, p=0.15, seed=7)
    )
    file_spec = make_spec(source=GraphSource.from_file(str(path)))
    fp_gen = graph_fingerprint(gen_spec.source.resolve())
    fp_file = graph_fingerprint(file_spec.source.resolve())
    assert fp_gen == fp_file
    assert gen_spec.cache_key(fp_gen) == file_spec.cache_key(fp_file)


# ---------------------------------------------------------------------- #
# JobResult
# ---------------------------------------------------------------------- #


def test_jobresult_json_round_trip():
    res = JobResult(
        spec=make_spec(),
        status="error",
        attempts=2,
        wall_time=0.123,
        worker_pid=4242,
        fingerprint="ab" * 32,
        graph_n=60,
        graph_m=170,
        error_type="ValueError",
        error_message="boom",
        error_traceback="Traceback ...",
    )
    again = JobResult.from_json(res.to_json())
    assert again == res
    assert not again.ok
    # the JSON itself is plain data
    doc = json.loads(res.to_json())
    assert doc["spec"]["problem"] == "mis"


# ---------------------------------------------------------------------- #
# Graph fingerprint
# ---------------------------------------------------------------------- #


def test_fingerprint_distinguishes_graphs():
    a = gnp_random_graph(60, 0.1, seed=3)
    b = gnp_random_graph(60, 0.1, seed=4)
    assert graph_fingerprint(a) != graph_fingerprint(b)
    assert graph_fingerprint(a) == graph_fingerprint(gnp_random_graph(60, 0.1, seed=3))


def test_fingerprint_byte_identical_across_processes():
    """The same spec's graph must fingerprint identically in a fresh process."""
    spec = make_spec()
    local_fp = graph_fingerprint(spec.source.resolve())
    script = (
        "import sys, json\n"
        "from repro.api import SolveRequest\n"
        "from repro.graphs import graph_fingerprint\n"
        "spec = SolveRequest.from_dict(json.loads(sys.stdin.read()))\n"
        "print(graph_fingerprint(spec.source.resolve()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps(spec.to_dict()),
        capture_output=True,
        text=True,
        check=True,
        env=subprocess_env(),
    )
    assert proc.stdout.strip() == local_fp


# ---------------------------------------------------------------------- #
# Result payload round trip (records serialization)
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", ["mis", "matching"])
def test_result_payload_json_round_trip(kind):
    g = gnp_random_graph(70, 0.1, seed=2)
    if kind == "mis":
        res = maximal_independent_set(g)
    else:
        res = maximal_matching(g)
    meta, arrays = result_to_payload(res)
    # meta must survive a real JSON round trip
    meta = json.loads(json.dumps(meta))
    again = result_from_payload(meta, arrays)
    assert type(again) is type(res)
    assert again.iterations == res.iterations
    assert again.rounds == res.rounds
    assert again.rounds_by_category == res.rounds_by_category
    assert again.max_machine_words == res.max_machine_words
    assert again.space_limit == res.space_limit
    assert again.records == res.records
    assert again.fidelity_events == res.fidelity_events
    if kind == "mis":
        assert np.array_equal(again.independent_set, res.independent_set)
    else:
        assert np.array_equal(again.pairs, res.pairs)


def test_request_digest_is_the_solve_digest():
    """``SolveRequest.solve_digest`` is pinned: the sha256 of the canonical
    JSON of the answer-determining fields.  The result-cache key and the
    serve coalescer both key on it, so a change here moves every cache
    address."""
    import hashlib

    spec = make_spec(
        model="cclique",
        eps=0.6,
        overrides={"strategy": "best_of", "c": 2},
        options={"charge_mode": "chps"},
    )
    payload = {
        "problem": "mis",
        "model": "cclique",
        "eps": 0.6,
        "force": None,
        "paper_rule": False,
        "overrides": {"c": 2, "strategy": "best_of"},
        "options": {"charge_mode": "chps"},
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    assert spec.solve_digest() == digest
    fp = "ab" * 32
    assert spec.cache_key(fp) == hashlib.sha256(f"{fp}:{digest}".encode()).hexdigest()
