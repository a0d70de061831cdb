"""The two solve workloads, run through the public front door ``repro.api.solve``.

A *pass* is one walk over the workload's fixed solve list.  Every timed solve
gets a freshly built :class:`~repro.graphs.graph.Graph` (built outside the
timed call), so the lazily cached CSR of one repeat never carries over to the
next.  Exact counts (``rounds``, ``words_moved`` and the solution digest)
must repeat across passes, traced or not; a drift counts as a failure.  The
traced pass adds seed-search and engine-round counts per entry.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

from common import ROOT, Ledger, median, peak_rss_mb, percentile, reset_peak_rss

#: ``(problem, model, n, d)``: each input is a ``gnp_block_graph(n, d / n, .)``.
SOLVE_LISTS = {
    # Sparse inputs: the n = 8000 simulated solves take the low-degree path,
    # and the graph transforms (line graph, G^2, colorings, BFS) dominate.
    "transforms": (
        ("coloring", "simulated", 2000, 8),
        ("matching", "congest", 2000, 8),
        ("mis", "congest", 4000, 8),
        ("mis", "simulated", 8000, 8),
        ("matching", "simulated", 8000, 8),
        ("vc", "simulated", 8000, 8),
    ),
    # Denser inputs: seed search, stages and Luby steps dominate; also the
    # only home of the engine and CONGESTED CLIQUE entries.  mis/simulated
    # uses d = 48 so that Delta^2 + 1 > S on every seed and the general path
    # runs (at d = 32, Delta ~ 53 sits on the S = 2863 boundary and the path
    # flips with the seed).  mis/mpc-engine stays at n = 8000: at n = 10 000
    # it raises SpaceExceededError.
    "sparsify": (
        ("mis", "simulated", 8000, 48),
        ("matching", "simulated", 4000, 16),
        ("ruling2", "simulated", 4000, 8),
        ("mis", "mpc-engine", 8000, 32),
        ("mis", "cclique", 100_000, 8),
        ("matching", "cclique", 100_000, 8),
    ),
}

#: Max degree each ``(n, d)`` input is conditioned on: the most common value
#: over 60 seeds.  Solve time and memory of the transforms grow with Delta
#: (coloring's peak RSS ran from 1.09 GB at Delta = 18 to 1.43 GB at 21), so
#: an unconditioned seed would mostly measure the luck of the draw.  The
#: n = 100 000 inputs feed only the cheap CONGESTED CLIQUE solves and are
#: left unconditioned.
DELTA = {(2000, 8): 20, (4000, 8): 20, (8000, 8): 21, (8000, 48): 74, (4000, 16): 31}
MAX_DRAWS = 200
#: Graph seeds of the successive draws for workload seed ``s`` are
#: ``s, s + SEED_STRIDE, s + 2 * SEED_STRIDE, ...``.
SEED_STRIDE = 1_000_003

#: Every registry entry either solve workload runs, as ``problem.model``.
ENTRIES = sorted({f"{p}.{m}" for items in SOLVE_LISTS.values() for p, m, _, _ in items})

DIGESTS = ROOT / "perfbench" / "digests.json"
#: Nominal seconds of one pass over either solve list on a quiet 2-vCPU box.
PASS_SECONDS = 15.0

GRAPH_SPANS = ("line_graph", "square_graph", "ball_sizes", "linial_coloring", "distance2_coloring")
CORE_SPANS = (
    "run_stage_seed_search",
    "sparsify_nodes",
    "sparsify_edges",
    "luby_mis_step",
    "luby_matching_step",
    "lowdeg_mis",
)


def conditioned_graph(n: int, d: int, seed: int):
    """The first draw of ``gnp_block_graph(n, d / n, .)`` whose max degree is
    ``DELTA[(n, d)]`` (any draw when the input is unconditioned)."""
    from repro.graphs.streaming import gnp_block_graph

    delta = DELTA.get((n, d))
    for k in range(MAX_DRAWS):
        g = gnp_block_graph(n, d / n, seed + k * SEED_STRIDE)
        if delta is None or g.max_degree() == delta:
            return g
    raise RuntimeError(f"no G({n}, {d}/n) draw with max degree {delta} in {MAX_DRAWS}")


def make_inputs(workload: str, seed: int) -> tuple[dict, float]:
    """``({(n, d): Graph}, generation seconds)`` for one workload and seed."""
    graphs = {}
    t0 = time.perf_counter()
    for _, _, n, d in SOLVE_LISTS[workload]:
        if (n, d) not in graphs:
            graphs[(n, d)] = conditioned_graph(n, d, seed)
    return graphs, time.perf_counter() - t0


def warm_up(workload: str, seed: int) -> None:
    """Solve every entry once on a small graph, so lazy imports and first-call
    set-up finish before the first timed solve."""
    from repro.api import SolveRequest, solve
    from repro.graphs.streaming import gnp_block_graph

    g = gnp_block_graph(300, 8 / 300, seed)
    for problem, model, _, _ in SOLVE_LISTS[workload]:
        solve(SolveRequest(problem=problem, model=model, graph=g))


def digest(res) -> str:
    """sha256 over the solution bytes, ``rounds`` and ``words_moved``."""
    h = hashlib.sha256(np.ascontiguousarray(res.solution, dtype=np.int64).tobytes())
    h.update(f":{res.rounds}:{res.words_moved}".encode())
    return h.hexdigest()


def run_pass(workload: str, graphs: dict, ledger: Ledger, tracer=None) -> list[dict]:
    """Solve the workload's list once; one record per solve that returned."""
    from repro.api import SolveRequest, solve
    from repro.graphs.graph import Graph

    records = []
    for problem, model, n, d in SOLVE_LISTS[workload]:
        entry = f"{problem}.{model}"
        base = graphs[(n, d)]
        g = Graph.from_edges(base.n, base.edge_array())
        request = SolveRequest(problem=problem, model=model, graph=g)
        ledger.attempt()
        mark = len(tracer.spans) if tracer else 0
        reset_peak_rss()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = solve(request)
            else:
                with tracer.span("api.solve"):
                    res = solve(request)
        except Exception as exc:  # noqa: BLE001 - record the failure, keep going
            ledger.fail(entry, type(exc).__name__, str(exc))
            continue
        seconds = time.perf_counter() - t0
        rec = {
            "entry": entry,
            "n": n,
            "d": d,
            "seconds": seconds,
            "peak_mb": peak_rss_mb(),
            "path": res.path,
            "rounds": int(res.rounds),
            "words_moved": int(res.words_moved),
            "solution_size": int(res.solution_size),
            "digest": digest(res),
        }
        if tracer is not None:
            spans = tracer.spans[mark:]
            seeds = [sp for sp in spans if sp.name == "derand.select_seed_batch"]
            rec["seed_calls"] = len(seeds)
            rec["seed_trials"] = sum(sp.trials for sp in seeds)
            rec["seed_unsatisfied"] = sum(not sp.satisfied for sp in seeds)
            rec["round_packed_calls"] = sum(
                sp.name == "mpc.engine.round_packed" for sp in spans
            )
        if not res.verified:
            ledger.fail(entry, "Unverified", json.dumps(res.certificate, default=str))
        records.append(rec)
    return records


EXACT = ("rounds", "words_moved", "digest")


def check_repeats(passes: list[list[dict]], ledger: Ledger) -> None:
    """Every pass must reproduce the first pass's exact counts, entry by entry."""
    first = {r["entry"]: r for r in passes[0]} if passes else {}
    for records in passes[1:]:
        for rec in records:
            ref = first.get(rec["entry"])
            if ref is None:
                continue
            drift = [k for k in EXACT if rec[k] != ref[k]]
            if drift:
                ledger.fail(rec["entry"], "CountDrift", f"changed between repeats: {drift}")


def load_digests() -> dict:
    if DIGESTS.exists():
        return json.loads(DIGESTS.read_text())
    return {}


def digest_drift(workload: str, seed: int, records: list[dict]) -> tuple[int, bool]:
    """``(mismatches, checked)`` against the digests recorded for this seed."""
    recorded = load_digests().get(workload, {}).get(str(seed))
    if recorded is None:
        return 0, False
    return sum(recorded.get(r["entry"]) != r["digest"] for r in records), True


def record_digests(workload: str, seed: int, records: list[dict]) -> None:
    table = load_digests()
    table.setdefault(workload, {})[str(seed)] = {r["entry"]: r["digest"] for r in records}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def run_passes(workload: str, graphs: dict, ledger: Ledger, seconds: float) -> list[list[dict]]:
    """``round(seconds / PASS_SECONDS)`` untraced passes, at least one.

    The count follows the budget, not measured pass times, so a slow spell
    on the box cannot change how many passes the median is taken over.
    """
    count = max(1, round(seconds / PASS_SECONDS))
    return [run_pass(workload, graphs, ledger) for _ in range(count)]


def end_to_end(passes: list[list[dict]], ledger: Ledger) -> dict:
    """End-to-end metrics of the solve workloads.

    The request-style metrics treat one pass over the solve list as one
    request: a percentile over the dozen unlike solves of a run would just
    be whichever entry lands in the middle, and swing with that entry.
    """
    pass_s = [sum(r["seconds"] for r in records) for records in passes]
    peaks = [r["peak_mb"] for records in passes for r in records]
    if not peaks:  # every solve failed; the ledger says why
        return {"solve_s": 0.0, "peak_rss_mb": 0.0, "ok_frac": ledger.ok_frac(),
                "req_per_s": 0.0, "latency_p50_ms": 0.0, "latency_p99_ms": 0.0}
    return {
        "solve_s": median(pass_s),
        "peak_rss_mb": max(peaks),
        "ok_frac": ledger.ok_frac(),
        "req_per_s": len(pass_s) / sum(pass_s),
        "latency_p50_ms": median(pass_s) * 1e3,
        "latency_p99_ms": percentile(pass_s, 99.0) * 1e3,
    }


def per_entry(passes: list[list[dict]]) -> dict:
    """``api.solve_s.*`` (median seconds) and ``api.peak_mb.*`` per entry."""
    out = {}
    for entry in ENTRIES:
        recs = [r for records in passes for r in records if r["entry"] == entry]
        out[f"api.solve_s.{entry}"] = median([r["seconds"] for r in recs]) if recs else 0.0
        out[f"api.peak_mb.{entry}"] = max((r["peak_mb"] for r in recs), default=0.0)
    return out


def layer_metrics(summary: dict, traced: list[dict]) -> dict:
    """Per-layer metrics from one traced pass."""

    def self_s(name: str) -> float:
        return summary["self_s"].get(name, 0.0)

    def calls(name: str) -> int:
        return summary["calls"].get(name, 0)

    out = {}
    for fn in GRAPH_SPANS:
        out[f"graphs.{fn}.self_s"] = self_s(f"graphs.{fn}")
        out[f"graphs.{fn}.calls"] = calls(f"graphs.{fn}")
    out["congest.bfs_depth.self_s"] = self_s("congest.bfs_depth")
    seed_calls, trials = calls("derand.select_seed_batch"), summary["seed_trials"]
    out["derand.select_seed_batch.self_s"] = self_s("derand.select_seed_batch")
    out["derand.select_seed_batch.calls"] = seed_calls
    out["derand.select_seed_batch.trials"] = trials
    out["derand.select_seed_batch.unsatisfied"] = summary["seed_unsatisfied"]
    out["derand.seed_yield"] = seed_calls / trials if trials else 0.0
    for fn in CORE_SPANS:
        out[f"core.{fn}.self_s"] = self_s(f"core.{fn}")
    out["mpc.engine.round_packed.self_s"] = self_s("mpc.engine.round_packed")
    out["mpc.engine.round_packed.calls"] = calls("mpc.engine.round_packed")
    out["mpc.engine.round.self_s"] = self_s("mpc.engine.round")
    out["mpc.words_moved"] = sum(
        r["words_moved"] for r in traced if r["entry"].endswith(".mpc-engine")
    )
    for fn in ("cc_mis", "cc_maximal_matching"):
        out[f"cclique.{fn}.self_s"] = self_s(f"cclique.{fn}")
    out["api.unattributed_frac"] = self_s("api.solve") / (
        summary["total_s"].get("api.solve") or 1.0
    )
    return out


def layer_shares(summary: dict) -> dict:
    """Share of traced solve time per layer (the workload-split check)."""
    solve = summary["total_s"].get("api.solve", 0.0) or 1.0
    shares: dict[str, float] = {}
    for name, sec in summary["self_s"].items():
        if name == "api.solve":
            continue
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + sec / solve
    shares["congest_plus_graphs"] = shares.get("graphs", 0.0) + shares.get("congest", 0.0)
    shares["derand_plus_core"] = shares.get("derand", 0.0) + shares.get("core", 0.0)
    shares["unattributed"] = summary["self_s"].get("api.solve", 0.0) / solve
    return shares
