"""The ``repro.api`` facade: registry completeness, envelope round trips,
retired execution knobs, and shim-vs-facade parity.

The parity tests are the contract that makes the facade safe to adopt: for
every registry entry, ``solve()`` must return the *bit-identical* solution,
round count and word count that the historical entry point produces for the
same input.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    REGISTRY,
    SolveRequest,
    SolveResult,
    solve,
)
from repro.cclique.mis_cc import cc_maximal_matching, cc_mis
from repro.congest.mis_congest import congest_maximal_matching, congest_mis
from repro.core.api import maximal_independent_set, maximal_matching
from repro.core.params import Params
from repro.graphs import GraphSource, gnp_random_graph
from repro.models.ledger import ModelSnapshot
from repro.runtime import JobResult


def small_graph(seed: int = 3, n: int = 60, p: float = 0.1):
    return gnp_random_graph(n, p, seed=seed)


# ---------------------------------------------------------------------- #
# Registry surface
# ---------------------------------------------------------------------- #


def test_registry_has_the_expected_matrix():
    keys = {(e.problem, e.model) for e in REGISTRY.entries()}
    assert ("mis", "simulated") in keys
    assert ("mis", "mpc-engine") in keys
    assert ("mis", "cclique") in keys
    assert ("mis", "congest") in keys
    assert ("matching", "cclique") in keys
    assert ("matching", "congest") in keys
    for problem in ("vc", "coloring", "ruling2"):
        assert (problem, "simulated") in keys
    assert REGISTRY.models("mis") == ["cclique", "congest", "mpc-engine", "simulated"]
    assert REGISTRY.problems() == ["coloring", "matching", "mis", "ruling2", "vc"]


def test_registry_get_unknown_raises_with_catalog():
    with pytest.raises(KeyError, match="known entries"):
        REGISTRY.get("mis", "quantum")


def test_request_validation():
    with pytest.raises(ValueError, match="unknown problem"):
        SolveRequest(problem="tsp")
    with pytest.raises(ValueError, match="unknown model"):
        SolveRequest(problem="mis", model="pram")
    # Both axes known, the pair unregistered: the message names the pair.
    with pytest.raises(ValueError, match=r"\('vc', 'cclique'\)"):
        SolveRequest(problem="vc", model="cclique")
    with pytest.raises(ValueError, match="needs a graph"):
        solve(SolveRequest(problem="mis"))


def test_solve_resolves_a_request_source():
    src = GraphSource.generator("gnp_random_graph", n=60, p=0.1, seed=3)
    by_source = solve(SolveRequest(problem="mis", source=src))
    by_graph = solve(SolveRequest(problem="mis", graph=small_graph()))
    assert np.array_equal(by_source.solution, by_graph.solution)
    assert by_source.rounds == by_graph.rounds


def test_traced_solve_span_records_the_request_eps():
    """eps has one source, so the root span records the eps the solve ran."""
    from repro.obs import trace_capture

    g = gnp_random_graph(300, 0.03, seed=0)
    with trace_capture() as buf:
        res = solve(SolveRequest(problem="mis", graph=g, eps=0.2))
    (root,) = [sp for sp in buf.spans if sp["name"] == "solve"]
    assert root["attrs"]["eps"] == 0.2
    assert res.rounds == maximal_independent_set(g, eps=0.2).rounds


def test_registry_completeness_every_entry_solves_and_round_trips():
    """Acceptance: every (problem, model) entry solves a small graph and the
    SolveResult survives the runtime JSON payload round trip."""
    g = small_graph()
    for entry in REGISTRY.entries():
        res = solve(
            SolveRequest(problem=entry.problem, model=entry.model, graph=g)
        )
        assert isinstance(res, SolveResult)
        assert res.verified, (entry.problem, entry.model)
        assert res.rounds > 0
        if res.solution_kind == "pairs":
            assert res.solution.ndim == 2 and res.solution.shape[1] == 2
            assert res.solution_size == res.solution.shape[0]
        elif res.solution_kind == "nodes":
            assert res.solution_size == res.solution.size
        else:  # colors: one entry per node, size counts distinct colors
            assert res.solution.size == g.n
            assert res.solution_size == len(set(res.solution.tolist()))
        if entry.capabilities.snapshot:
            assert isinstance(res.snapshot, ModelSnapshot)
            assert res.snapshot.rounds == res.rounds
        # Runtime JSON payload round trip (the cache's persistence format).
        meta, arrays = res.to_payload()
        meta = json.loads(json.dumps(meta))  # must be JSON-native
        again = SolveResult.from_payload(meta, arrays)
        assert np.array_equal(again.solution, res.solution)
        for field_name in (
            "problem", "model", "solution_kind", "solution_size", "verified",
            "rounds", "iterations", "words_moved", "max_machine_words",
            "space_limit", "path",
        ):
            assert getattr(again, field_name) == getattr(res, field_name), field_name
        if res.snapshot is not None:
            assert again.snapshot == res.snapshot


# ---------------------------------------------------------------------- #
# Shim-vs-facade parity (hypothesis)
# ---------------------------------------------------------------------- #


graph_params = st.tuples(
    st.integers(min_value=12, max_value=70),  # n
    st.integers(min_value=0, max_value=6),  # seed
)


@settings(max_examples=8, deadline=None)
@given(graph_params)
def test_parity_mis_cclique(gp):
    n, seed = gp
    g = gnp_random_graph(n, 0.12, seed=seed)
    legacy = cc_mis(g)
    res = solve(SolveRequest(problem="mis", model="cclique", graph=g))
    assert np.array_equal(res.solution, legacy.solution)
    assert res.rounds == legacy.rounds
    assert res.iterations == legacy.phases
    assert res.words_moved == legacy.snapshot.words_moved
    assert res.snapshot == legacy.snapshot


@settings(max_examples=8, deadline=None)
@given(graph_params)
def test_parity_matching_cclique(gp):
    n, seed = gp
    g = gnp_random_graph(n, 0.12, seed=seed)
    legacy = cc_maximal_matching(g)
    res = solve(SolveRequest(problem="matching", model="cclique", graph=g))
    assert np.array_equal(res.solution, legacy.solution)
    assert res.rounds == legacy.rounds
    assert res.words_moved == legacy.snapshot.words_moved


@settings(max_examples=6, deadline=None)
@given(graph_params)
def test_parity_mis_congest(gp):
    n, seed = gp
    g = gnp_random_graph(n, 0.1, seed=seed)
    legacy = congest_mis(g)
    res = solve(SolveRequest(problem="mis", model="congest", graph=g))
    assert np.array_equal(res.solution, legacy.independent_set)
    assert res.rounds == legacy.rounds
    assert res.words_moved == legacy.snapshot.words_moved
    assert res.certificate["bfs_depth"] == legacy.bfs_depth


@settings(max_examples=6, deadline=None)
@given(graph_params)
def test_parity_matching_congest(gp):
    n, seed = gp
    g = gnp_random_graph(n, 0.1, seed=seed)
    legacy = congest_maximal_matching(g)
    res = solve(SolveRequest(problem="matching", model="congest", graph=g))
    if g.m:
        eids = legacy.independent_set
        pairs = np.stack([g.edges_u[eids], g.edges_v[eids]], axis=1)
    else:
        pairs = np.empty((0, 2), dtype=np.int64)
    assert np.array_equal(res.solution, pairs)
    assert res.rounds == legacy.rounds


@settings(max_examples=6, deadline=None)
@given(graph_params)
def test_parity_mis_simulated(gp):
    n, seed = gp
    g = gnp_random_graph(n, 0.1, seed=seed)
    legacy = maximal_independent_set(g)
    res = solve(SolveRequest(problem="mis", model="simulated", graph=g))
    assert np.array_equal(res.solution, legacy.independent_set)
    assert res.rounds == legacy.rounds
    assert res.iterations == legacy.iterations
    assert res.words_moved == legacy.words_moved


@settings(max_examples=4, deadline=None)
@given(graph_params)
def test_parity_matching_simulated_forced_paths(gp):
    n, seed = gp
    g = gnp_random_graph(n, 0.1, seed=seed)
    for force in (None, "general", "lowdeg"):
        legacy = maximal_matching(g, force=force)
        res = solve(
            SolveRequest(problem="matching", model="simulated", graph=g, force=force)
        )
        assert np.array_equal(res.solution, legacy.pairs)
        assert res.rounds == legacy.rounds


def test_parity_mis_engine():
    from repro.api.solvers import engine_space_plan
    from repro.mpc.distributed_luby import distributed_luby_mis

    g = small_graph(seed=5, n=80, p=0.06)
    machines, space = engine_space_plan(g, Params())
    mis, rounds, phases = distributed_luby_mis(g, machines, space)
    res = solve(SolveRequest(problem="mis", model="mpc-engine", graph=g))
    assert np.array_equal(res.solution, mis)
    assert res.rounds == rounds
    assert res.iterations == phases
    assert res.space_limit == space
    # Satellite: the engine's ModelSnapshot is exposed through the envelope
    # while the public (mis, rounds, phases) tuple stays unchanged.
    assert isinstance(res.snapshot, ModelSnapshot)
    assert res.snapshot.model == "mpc-engine"
    assert res.snapshot.rounds == rounds
    assert res.words_moved == res.snapshot.words_moved > 0


@pytest.mark.parametrize("d", [4, 8])
def test_engine_space_plan_fits_the_peak_round(d):
    """Regression: the old plan was 1-17% short of the kill-query round,
    and ``solve`` raised SpaceExceededError at n = 10^4.  The exact plan
    solves and stays within 10% of the measured high-water mark."""
    from repro.graphs.streaming import gnp_block_graph

    n = 10_000
    g = gnp_block_graph(n, d / n, 1)
    res = solve(SolveRequest(problem="mis", model="mpc-engine", graph=g))
    assert res.verified
    assert res.max_machine_words <= res.space_limit <= 1.1 * res.max_machine_words


# ---------------------------------------------------------------------- #
# Retired execution knobs
# ---------------------------------------------------------------------- #

#: Variables that once tuned the seed scan or the CONGEST bill; the values
#: are ones the old resolvers rejected.
RETIRED_ENV = {
    "REPRO_SEED_CHUNK": "0",
    "REPRO_SEED_WORKERS": "-1",
    "REPRO_CONGEST_PIPELINE_SEED_FIX": "1",
}


def test_retired_execution_env_vars_are_not_read(monkeypatch):
    g = small_graph(seed=4)
    models = ("simulated", "cclique", "congest", "mpc-engine")
    for var in RETIRED_ENV:
        monkeypatch.delenv(var, raising=False)
    want = {m: solve(SolveRequest(problem="mis", model=m, graph=g)) for m in models}
    for var, value in RETIRED_ENV.items():
        monkeypatch.setenv(var, value)
    for model in models:
        got = solve(SolveRequest(problem="mis", model=model, graph=g))
        assert np.array_equal(got.solution, want[model].solution), model
        assert (got.rounds, got.words_moved) == (
            want[model].rounds,
            want[model].words_moved,
        ), model
        if model == "congest":
            assert got.snapshot.detail["pipeline_seed_fix"] is False


# ---------------------------------------------------------------------- #
# Words-moved wiring (ROADMAP satellite)
# ---------------------------------------------------------------------- #


def test_mpc_context_words_moved_positive_for_both_paths():
    g = small_graph(seed=2, n=70, p=0.1)
    for force in ("general", "lowdeg"):
        res = solve(
            SolveRequest(problem="mis", model="simulated", graph=g, force=force)
        )
        assert res.words_moved > 0, force
        assert res.snapshot.words_moved == res.words_moved
        assert res.raw.words_moved == res.words_moved


def test_cross_model_report_shows_mpc_words(capsys):
    from repro.analysis import cross_model_report

    g = small_graph(seed=4, n=80, p=0.08)
    results = [
        solve(SolveRequest(problem="mis", model=model, graph=g))
        for model in REGISTRY.models("mis")
    ]
    mpc = next(res for res in results if res.model == "simulated")
    assert mpc.snapshot.words_moved == mpc.words_moved > 0
    text = cross_model_report(results)
    row = next(
        line for line in text.splitlines() if line.strip().startswith("simulated")
    )
    assert str(mpc.words_moved) in row


def test_cross_model_engine_row_opt_in(capsys):
    """The engine row used to be opt-in; ``--model all`` always has it."""
    from repro.__main__ import main

    argv = ["solve", "--problem", "mis", "--model", "all", "--n", "60",
            "--p", "0.08", "--seed", "4", "--json", "-"]
    assert main(argv) == 0
    rows = {row["model"]: row for row in json.loads(capsys.readouterr().out)}
    assert set(rows) == {"simulated", "cclique", "congest", "mpc-engine"}
    assert all(row["verified"] for row in rows.values())
    assert rows["mpc-engine"]["words_moved"] > 0


# ---------------------------------------------------------------------- #
# CONGEST pipelined seed fix (ablation satellite)
# ---------------------------------------------------------------------- #


def test_congest_pipeline_seed_fix_same_mis_fewer_rounds():
    g = small_graph(seed=6, n=70, p=0.08)
    base = solve(SolveRequest(problem="mis", model="congest", graph=g))
    piped = solve(
        SolveRequest(
            problem="mis",
            model="congest",
            graph=g,
            overrides={"congest_pipeline_seed_fix": True},
        )
    )
    # Identical deterministic output; only the round bill changes.
    assert np.array_equal(piped.solution, base.solution)
    assert piped.rounds < base.rounds
    assert piped.words_moved == base.words_moved  # same votes move
    assert piped.snapshot.detail["pipeline_seed_fix"] is True
    assert base.snapshot.detail["pipeline_seed_fix"] is False


def test_cmd_solve_pipeline_seed_fix_flag(capsys):
    from repro.__main__ import main

    def run(*flags):
        argv = ["solve", "--problem", "mis", "--model", "congest",
                "--n", "70", "--p", "0.08", "--json", "-", *flags]
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    base, piped = run(), run("--pipeline-seed-fix")
    assert piped["snapshot"]["detail"]["pipeline_seed_fix"] is True
    assert base["snapshot"]["detail"]["pipeline_seed_fix"] is False
    assert piped["rounds"] < base["rounds"]
    assert piped["solution_size"] == base["solution_size"]


def test_congest_pipeline_charge_formula():
    from repro.congest.model import CongestContext

    g = small_graph(seed=8, n=40, p=0.15)
    seq = CongestContext(g)
    pipe = CongestContext(g, pipeline_seed_fix=True)
    bits = 10
    seq.charge_seed_fix(bits)
    pipe.charge_seed_fix(bits)
    depth = max(1, seq.depth)
    assert seq.rounds == 2 * depth * bits
    assert pipe.rounds == 2 * depth + 2 * (bits - 1)
    assert seq.words_moved == pipe.words_moved == 2 * g.n * bits


# ---------------------------------------------------------------------- #
# Facade through the runtime (worker dispatch is registry-driven)
# ---------------------------------------------------------------------- #


def test_new_registry_problems_are_batch_runnable():
    """matching under cclique / congest runs in a batch purely because the
    registry holds the pairs — no worker or request change was needed."""
    from repro.runtime import Scheduler

    src = GraphSource.generator("gnp_random_graph", n=50, p=0.1, seed=3)
    specs = [
        SolveRequest("matching", model, source=src) for model in ("cclique", "congest")
    ]
    batch = Scheduler(workers=1).run(specs)
    assert batch.all_ok
    assert all(r.verified for r in batch.results)
    assert batch.results[0].path == "congested-clique"
    assert batch.results[1].path == "congest"


def test_registry_matrix_suite_covers_every_entry():
    from repro.runtime import build_suite

    specs = build_suite("registry-matrix")
    assert len(specs) == len(REGISTRY)
    assert {(s.problem, s.model) for s in specs} == {
        (e.problem, e.model) for e in REGISTRY.entries()
    }


def test_register_new_problem_is_instantly_batch_runnable():
    """The registry axes are open: a brand-new problem key registered once
    is solvable through the facade and runnable through the runtime with no
    table edits anywhere."""
    from repro.api import SolverEntry
    from repro.api.registry import SolverRegistry
    from repro.runtime import Scheduler

    # A scratch registry accepts arbitrary axes.
    scratch = SolverRegistry()
    scratch.register(SolverEntry(problem="spanner", model="simulated", fn=lambda *a: None))
    assert ("spanner", "simulated") in scratch
    with pytest.raises(ValueError, match="non-empty"):
        scratch.register(SolverEntry(problem="", model="simulated", fn=lambda *a: None))

    # End to end on the live registry: register, solve, batch, deregister.
    def _solve_iso(graph, request, params):
        iso = np.nonzero(graph.degrees() == 0)[0].astype(np.int64)
        return SolveResult(
            problem="isolated",
            model="simulated",
            solution=iso,
            solution_kind="nodes",
            solution_size=int(iso.size),
            verified=True,
            certificate={"verifier": "degrees==0", "ok": True},
            rounds=1,
            iterations=1,
            words_moved=graph.n,
            max_machine_words=0,
            space_limit=0,
        )

    from repro.api import REGISTRY as live

    entry = SolverEntry(problem="isolated", model="simulated", fn=_solve_iso)
    live.register(entry)
    try:
        g = small_graph(seed=11, n=30, p=0.05)
        res = solve(SolveRequest(problem="isolated", graph=g))
        assert res.rounds == 1
        # Late-registered problems pass request validation and run.
        spec = SolveRequest(
            "isolated",
            source=GraphSource.generator("gnp_random_graph", n=30, p=0.05, seed=11),
        )
        batch = Scheduler(workers=1).run([spec])
        assert batch.all_ok
    finally:
        live._entries.pop(("isolated", "simulated"), None)


def test_cmd_solve_unknown_problem_is_friendly(capsys):
    from repro.__main__ import main

    rc = main(["solve", "--problem", "bogus", "--n", "20", "--p", "0.1"])
    assert rc == 2
    assert "unknown problem" in capsys.readouterr().err


def test_worker_payload_round_trips_jobresult(tmp_path):
    from repro.graphs import GraphStore
    from repro.runtime.worker import run_job

    spec = SolveRequest(
        "mis",
        "cclique",
        source=GraphSource.generator("gnp_random_graph", n=40, p=0.1, seed=2),
    )
    g = spec.source.resolve()
    fingerprint = GraphStore(tmp_path).put_graph(g).fingerprint
    out = run_job(
        {
            "spec": spec.to_dict(),
            "graph_store": str(tmp_path),
            "fingerprint": fingerprint,
            "timeout": None,
            "trace": False,
        }
    )
    assert out["status"] == "ok"
    assert "store_fallback" not in out.get("meta", {})
    assert out["result_meta"]["kind"] == "solve_result"
    res = SolveResult.from_payload(out["result_meta"], out["arrays"])
    legacy = cc_mis(g)
    assert np.array_equal(res.solution, legacy.solution)
    assert res.rounds == legacy.rounds
    # and the flattened fields feed a JSON-round-trippable JobResult
    doc = {
        k: v
        for k, v in out.items()
        if k not in ("result_meta", "arrays")
    }
    jr = JobResult(spec=spec, **{k: doc[k] for k in (
        "status", "wall_time", "worker_pid", "fingerprint", "graph_n",
        "graph_m", "solution_size", "iterations", "rounds",
        "max_machine_words", "space_limit", "verified", "path",
    )})
    assert JobResult.from_json(jr.to_json()) == jr
