"""End-to-end registry benchmark: ``python3 perfbench/run.py --workload W ...``.

Workloads:

* ``transforms`` -- sparse solves where graph transforms and BFS dominate;
* ``sparsify`` -- denser solves where seed search, stages and Luby dominate;
* ``serve-mixed`` -- a ``repro serve`` subprocess under a 70/30 read/write mix.

``--trace 0`` measures the end-to-end metrics with no wrappers installed,
running passes over the solve list (or request blocks) for about
``--seconds``.  ``--trace 1`` reports per-layer metrics: on the solve
workloads it runs one untraced pass, one pass with the layer wrappers of
``tracer.py`` installed, and one more untraced pass; on ``serve-mixed`` the
layers are read from reply fields and a ``/metrics`` diff.  ``REPRO_TRACE``
stays off in every run.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record (per-solve counts, error types,
layer shares, ``src/`` line counts, spans) goes to ``perfbench/results/``.
Exit status is 0 when the run completed, whatever it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

from common import ROOT, SETUPS, SRC, Ledger, clean_env, median, src_line_counts

WORKLOADS = ("transforms", "sparsify", "serve-mixed")
RESULTS = ROOT / "perfbench" / "results"

END_TO_END = {
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    from solves import CORE_SPANS, ENTRIES, GRAPH_SPANS

    units = {}
    for entry in ENTRIES:
        units[f"api.solve_s.{entry}"] = "s"
        units[f"api.peak_mb.{entry}"] = "MB"
    units["api.unattributed_frac"] = "ratio"
    units["api.digest_drift"] = "count"
    for fn in GRAPH_SPANS:
        units[f"graphs.{fn}.self_s"] = "s"
        units[f"graphs.{fn}.calls"] = "count"
    units["graphs.generate_s"] = "s"
    units["congest.bfs_depth.self_s"] = "s"
    units.update({
        "derand.select_seed_batch.self_s": "s",
        "derand.select_seed_batch.calls": "count",
        "derand.select_seed_batch.trials": "count",
        "derand.select_seed_batch.unsatisfied": "count",
        "derand.seed_yield": "ratio",
    })
    for fn in CORE_SPANS:
        units[f"core.{fn}.self_s"] = "s"
    units.update({
        "mpc.engine.round_packed.self_s": "s",
        "mpc.engine.round_packed.calls": "count",
        "mpc.engine.round.self_s": "s",
        "mpc.words_moved": "words",
        "cclique.cc_mis.self_s": "s",
        "cclique.cc_maximal_matching.self_s": "s",
        "runtime.cache.hit_ratio": "ratio",
        "runtime.cache.lookup_ms": "ms",
        "runtime.bytes_shipped": "bytes",
        "serve.solve_s": "s",
        "serve.overhead_ms": "ms",
        "serve.hit_latency_p50_ms": "ms",
        "serve.miss_latency_p50_ms": "ms",
        "serve.batch_size_mean": "count",
        "serve.coalesced": "count",
        "serve.rejected": "count",
        "obs.trace_overhead_frac": "ratio",
    })
    return units


def setup_probe(workload: str, seed: int) -> None:
    """Everything a solve run does before its first timed solve."""
    import repro.api  # noqa: F401
    from solves import make_inputs, warm_up

    make_inputs(workload, seed)
    warm_up(workload, seed)


def timed_setups(workload: str, seed: int) -> list[float]:
    """Wall time of a fresh process's set-up, measured ``SETUPS`` times."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"]
    out = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=clean_env(), check=True, stdout=subprocess.DEVNULL, timeout=120)
        out.append(time.perf_counter() - t0)
    return out


def run_solves(workload: str, seed: int, seconds: float, trace: bool, record: bool) -> dict:
    import repro.api  # noqa: F401  (imports every layer the tracer patches)
    import solves
    from tracer import Tracer, summarize

    setups = timed_setups(workload, seed)
    graphs, generate_s = solves.make_inputs(workload, seed)
    solves.warm_up(workload, seed)
    ledger = Ledger()
    layers = {"graphs.generate_s": generate_s}
    artifact = {"setup_runs_s": setups}
    if not trace:
        passes = solves.run_passes(workload, graphs, ledger, seconds)
    else:
        # Untraced, traced, untraced: the first pass of a process runs cold
        # (measured 8-20% slower), so the tracer's overhead is taken against
        # the second, warm untraced pass.
        tracer = Tracer()
        passes = [solves.run_pass(workload, graphs, ledger)]
        tracer.install()
        try:
            traced = solves.run_pass(workload, graphs, ledger, tracer)
        finally:
            tracer.uninstall()
        passes.append(solves.run_pass(workload, graphs, ledger))
        solves.check_repeats([passes[0], traced], ledger)
        summary = summarize(tracer.spans)
        layers.update(solves.per_entry(passes))
        layers.update(solves.layer_metrics(summary, traced))
        traced_s = sum(r["seconds"] for r in traced)
        layers["obs.trace_overhead_frac"] = traced_s / sum(r["seconds"] for r in passes[1]) - 1.0
        artifact.update(
            traced_pass=traced,
            layer_shares=solves.layer_shares(summary),
            span_summary=summary,
            patched_sites=tracer.sites,
            spans_file=_write_spans(workload, seed, tracer),
        )
    solves.check_repeats(passes, ledger)
    drift, checked = solves.digest_drift(workload, seed, passes[0])
    if record:
        solves.record_digests(workload, seed, passes[0])
    layers["api.digest_drift"] = drift
    e2e = solves.end_to_end(passes, ledger)
    e2e["setup_s"] = median(setups)
    artifact.update(digest_checked=checked, passes=passes)
    return {"ledger": ledger, "end_to_end": e2e, "layers": layers, "artifact": artifact}


def _write_spans(workload: str, seed: int, tracer) -> str:
    path = RESULTS / f"{workload}-seed{seed}-spans.jsonl"
    with open(path, "w") as fh:
        for sp in tracer.spans:
            fh.write(json.dumps(sp.to_dict()) + "\n")
    return str(path.relative_to(ROOT))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's solution digests as the reference")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    # SIGTERM unwinds through the finally blocks that stop the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    RESULTS.mkdir(parents=True, exist_ok=True)
    if args.workload == "serve-mixed":
        import serve_mixed

        out = serve_mixed.run(args.seed, args.seconds)
    else:
        out = run_solves(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.record_digests)

    ledger: Ledger = out["ledger"]
    if args.trace:
        values, units = out["layers"], per_layer_units()
    else:
        values, units = out["end_to_end"], END_TO_END
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ledger": ledger.to_dict(),
        "end_to_end": out["end_to_end"],
        "layers": out["layers"],
        "src_lines": src_line_counts(),
        **out["artifact"],
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
