"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``solve``      one problem under one cost model through the ``repro.api``
               registry (``--list`` shows every (problem, model) entry)
``mis``        deterministic MIS on an edge-list file (or a generated graph)
``matching``   deterministic maximal matching
``vc``         2-approximate vertex cover
``coloring``   (Delta+1)-coloring
``demo``       run on a generated G(n, p) without needing an input file
``crossmodel`` bill one input under MPC / CONGESTED CLIQUE / CONGEST
``batch``      run a named workload suite through the parallel runtime
``serve``      run the always-on solver service (HTTP or stdio JSON lines)
``cache``      inspect / clear the content-addressed result cache
``store``      inspect / verify / gc the out-of-core graph store
``trace``      record / summarize / diff / export traces, check conformance
``docs``       regenerate docs/THEORY.md + docs/REGISTRY.md from the registry

Every solve-shaped command routes through :func:`repro.api.solve`; the
problem-specific commands (``mis`` / ``matching`` / ``vc`` / ``coloring``)
are convenience spellings of ``solve --model simulated``.

Examples::

    python -m repro solve --list
    python -m repro solve --problem mis --model cclique --n 300 --p 0.03
    python -m repro demo --n 500 --p 0.02 --algo mis
    python -m repro mis graph.edges --eps 0.6 --out mis.txt
    python -m repro matching graph.edges --force lowdeg
    python -m repro crossmodel --n 300 --p 0.03 --problem mis
    python -m repro batch --suite cross-model --workers 4
    python -m repro batch --suite large-sweep --store-dir /tmp/graphs --workers 4
    python -m repro serve --port 8750 --workers 2
    python -m repro serve --demo
    python -m repro cache stats
    python -m repro store stats --store-dir /tmp/graphs
    python -m repro trace record --problem mis --model mpc-engine --out t.jsonl
    python -m repro trace summarize t.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .api import REGISTRY, SolveRequest, solve
from .core import Params
from .graphs import Graph, gnp_random_graph, read_edge_list


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, default=0.5, help="space exponent (S = Theta(n^eps))")
    p.add_argument("--force", choices=["general", "lowdeg"], default=None,
                   help="pin the algorithm path instead of Theorem-1 dispatch")
    p.add_argument("--out", type=str, default=None, help="write the solution to a file")
    p.add_argument("--report", type=str, default=None,
                   help="write a full run report (markdown) to a file")


def _load_graph(args) -> Graph:
    if getattr(args, "input", None):
        return read_edge_list(args.input)
    return gnp_random_graph(args.n, args.p, seed=args.seed)


def _maybe_report(args, res, title: str) -> None:
    if getattr(args, "report", None):
        from .analysis import run_report

        with open(args.report, "w") as fh:
            fh.write(run_report(res, title=title))
        print(f"  report written to {args.report}")


def _report(kind: str, g: Graph, res) -> None:
    """Summary lines from a SolveResult envelope."""
    print(f"{kind} on {g}")
    print(f"  verified: {res.verified}")
    print(f"  iterations/phases: {res.iterations}")
    print(f"  charged MPC rounds: {res.rounds}")
    print(f"  words moved: {res.words_moved}")
    print(f"  space high-water: {res.max_machine_words}/{res.space_limit} words")
    raw = res.raw
    if raw is not None and getattr(raw, "fidelity_events", None):
        print(f"  fidelity events: {len(raw.fidelity_events)}")


def _emit_json(dest: str, payload: dict) -> None:
    """Write ``payload`` as JSON to a path, or to stdout when dest is ``-``."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if dest == "-":
        sys.stdout.write(text)
    else:
        with open(dest, "w") as fh:
            fh.write(text)
        print(f"  json written to {dest}")


def _write(path: str | None, lines) -> None:
    if path is None:
        return
    with open(path, "w") as fh:
        for line in lines:
            fh.write(f"{line}\n")
    print(f"  solution written to {path}")


def _simulated(args, problem: str):
    """Run one simulated-model solve through the facade."""
    g = _load_graph(args)
    return g, solve(
        SolveRequest(
            problem=problem,
            model="simulated",
            graph=g,
            eps=args.eps,
            force=getattr(args, "force", None),
        )
    )


def cmd_mis(args) -> int:
    g, res = _simulated(args, "mis")
    _report("MIS", g, res)
    print(f"  |I| = {res.solution_size}")
    _write(args.out, res.solution.tolist())
    _maybe_report(args, res.raw, f"MIS on {g}")
    return 0 if res.verified else 1


def cmd_matching(args) -> int:
    g, res = _simulated(args, "matching")
    _report("maximal matching", g, res)
    print(f"  |M| = {res.solution_size}")
    _write(args.out, (f"{u} {v}" for u, v in res.solution.tolist()))
    _maybe_report(args, res.raw, f"maximal matching on {g}")
    return 0 if res.verified else 1


def cmd_vc(args) -> int:
    g, res = _simulated(args, "vc")
    vc = res.raw
    print(f"vertex cover on {g}")
    print(f"  verified: {res.verified}; |cover| = {vc.size} "
          f"<= 2 * {vc.lower_bound()} (2-approx cert)")
    print(f"  charged MPC rounds: {res.rounds}")
    _write(args.out, res.solution.tolist())
    return 0 if res.verified else 1


def cmd_coloring(args) -> int:
    g, res = _simulated(args, "coloring")
    col = res.raw
    print(f"(Delta+1)-coloring on {g}")
    print(f"  proper: {res.verified}; palette {col.num_colors}, "
          f"used {res.solution_size}")
    print(f"  charged MPC rounds: {res.rounds}")
    _write(args.out, res.solution.tolist())
    return 0 if res.verified else 1


def cmd_solve(args) -> int:
    if args.list:
        from .runtime import runtime_problem_name

        print(f"{'problem':9s} {'model':11s} {'batch name':17s} capabilities")
        for e in REGISTRY.entries():
            print(
                f"{e.problem:9s} {e.model:11s} "
                f"{runtime_problem_name(e.problem, e.model):17s} "
                f"{e.capabilities.flags()}"
            )
            if args.verbose:
                print(f"  {e.description}  [{e.legacy_entry}]")
        return 0
    if not args.problem:
        print("error: --problem required (or --list to see entries)",
              file=sys.stderr)
        return 2

    options = {}
    if args.charge_mode:
        options["charge_mode"] = args.charge_mode
    if args.mode:
        options["mode"] = args.mode
    params = (
        Params(eps=args.eps, congest_pipeline_seed_fix=True)
        if args.pipeline_seed_fix
        else None
    )
    g = _load_graph(args)
    try:
        # Request validation + registry lookup are the usage-error surface;
        # the solve itself runs outside this try so real solver failures
        # keep their tracebacks.
        request = SolveRequest(
            problem=args.problem,
            model=args.model,
            graph=g,
            eps=args.eps,
            force=args.force,
            paper_rule=args.paper_rule,
            params=params,
            options=options,
        )
        REGISTRY.get(request.problem, request.model)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    res = solve(request)
    print(f"solve {args.problem} under {args.model} on {g}")
    print(f"  verified: {res.verified} ({res.certificate.get('verifier')})")
    print(f"  |solution| = {res.solution_size} ({res.solution_kind})")
    print(f"  rounds: {res.rounds}  iterations/phases: {res.iterations}")
    print(f"  words moved: {res.words_moved}")
    print(f"  space high-water: {res.max_machine_words}/{res.space_limit} words")
    if res.path:
        print(f"  path: {res.path}")
    print(f"  wall time: {res.wall_time:.3f}s")
    if res.trace is not None:
        print(f"  trace: {len(res.trace)} spans recorded")
    if args.json:
        meta, _ = res.to_payload()
        _emit_json(args.json, meta)
    if args.out:
        if res.solution_kind == "pairs":
            _write(args.out, (f"{u} {v}" for u, v in res.solution.tolist()))
        else:
            _write(args.out, res.solution.tolist())
    return 0 if res.verified else 1


def cmd_crossmodel(args) -> int:
    from .analysis import cross_model_report
    from .models import cross_model_run

    g = _load_graph(args)
    run = cross_model_run(
        g,
        args.problem,
        params=Params(eps=args.eps),
        include_engine=args.engine,
    )
    text = cross_model_report(run, title=f"cross-model {args.problem} on {g}")
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"  report written to {args.out}")
    if args.json:
        _emit_json(args.json, run.to_dict())
    return 0 if run.all_verified else 1


DEFAULT_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")
DEFAULT_STORE_DIR = os.environ.get("REPRO_GRAPH_STORE", ".repro-graphs")


def cmd_batch(args) -> int:
    from .runtime import ResultCache, Scheduler, build_suite, list_suites

    if args.list:
        for suite in list_suites():
            print(f"{suite.name:20s} {suite.description}")
        return 0
    if not args.suite:
        print("error: --suite NAME required (or --list to see suites)",
              file=sys.stderr)
        return 2

    try:
        specs = build_suite(args.suite)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    try:
        sched = Scheduler(
            workers=args.workers,
            timeout=args.timeout,
            retries=args.retries,
            cache=cache,
            store=args.store_dir,  # None -> follow REPRO_GRAPH_STORE
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    batch = sched.run(specs)
    st = batch.stats
    for r in batch.results:
        mark = "HIT " if r.cache_hit else ("ok  " if r.ok else r.status[:4])
        line = (f"  [{mark}] {r.spec.tag or r.spec.source.label():32s} "
                f"n={r.graph_n:<6d} rounds={r.rounds:<4d} {r.wall_time:.3f}s")
        if not r.ok:
            line += f"  {r.error_type}: {r.error_message}"
        print(line)
    print(f"batch '{args.suite}': {st.ok}/{st.total} ok "
          f"({st.errors} errors, {st.timeouts} timeouts) "
          f"with {st.workers} workers")
    print(f"  wall time: {st.wall_time:.3f}s ({st.jobs_per_second:.1f} jobs/s)")
    print(f"  cache hits: {st.cache_hits}/{st.total} "
          f"({st.cache_hit_rate:.0%})")
    print(f"  shipped: {st.bytes_shipped} bytes to workers")
    if sched.store is not None:
        line = (f"  store: {st.store_hits} hits, {st.store_misses} built "
                f"({sched.store.root})")
        if st.store_fallbacks:
            line += f", {st.store_fallbacks} shard fallbacks (!)"
        print(line)

    if args.out:
        with open(args.out, "w") as fh:
            for r in batch.results:
                fh.write(r.to_json() + "\n")
        print(f"  results written to {args.out}")
    if args.json:
        payload = {
            "suite": args.suite,
            "stats": st.to_dict(),
            "jobs": [r.to_dict() for r in batch.results],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"  batch json written to {args.json}")
    if args.report:
        from .analysis import batch_report

        with open(args.report, "w") as fh:
            fh.write(batch_report(batch.results, st, title=f"batch: {args.suite}"))
        print(f"  report written to {args.report}")
    return 0 if batch.all_ok else 1


def cmd_docs(args) -> int:
    from .analysis.docgen import check_docs, write_docs

    if args.check:
        stale = check_docs(args.out)
        if stale:
            print(
                f"docs out of date in {args.out}/: {', '.join(stale)} "
                f"(regenerate with `python -m repro docs`)",
                file=sys.stderr,
            )
            return 1
        print(f"docs up to date in {args.out}/")
        return 0
    for path in write_docs(args.out):
        print(f"  wrote {path}")
    return 0


def cmd_cache(args) -> int:
    from .runtime import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        dropped = cache.clear()
        print(f"cache {args.cache_dir}: cleared {dropped} entries")
        return 0
    size = cache.disk_usage()
    print(f"cache {args.cache_dir}")
    print(f"  entries: {len(cache)} (max {cache.max_entries})")
    print(f"  disk: {size / 1024:.1f} KiB")
    return 0


def cmd_store(args) -> int:
    from .graphs.store import GraphStore

    store = GraphStore(args.store_dir)
    if args.action == "gc":
        res = store.gc(max_bytes=args.max_bytes)
        print(f"store {args.store_dir}: gc")
        print(f"  removed: {res['removed_tmp']} tmp dirs, "
              f"{res['removed_orphans']} orphan objects, "
              f"{len(res['evicted'])} evicted over budget")
        print(f"  kept: {res['entries']} graphs, "
              f"{res['disk_bytes'] / 1e6:.1f} MB")
        return 0
    if args.action == "verify":
        bad = 0
        for key in store.keys():
            problems = store.verify(key)
            if problems:
                bad += 1
                print(f"  CORRUPT {key[:16]}..: {'; '.join(problems)}")
        print(f"store {args.store_dir}: {len(store) - bad}/{len(store)} "
              f"graphs verified clean")
        return 1 if bad else 0
    stats = store.stats()
    print(f"store {args.store_dir}")
    budget = (f"{stats['max_bytes'] / 1e6:.1f} MB"
              if stats["max_bytes"] is not None else "unbounded")
    print(f"  graphs: {stats['entries']}  "
          f"disk: {stats['disk_bytes'] / 1e6:.1f} MB  budget: {budget}")
    for obj in stats["objects"]:
        shards = obj["shards"]
        print(f"  {obj['fingerprint'][:16]}..  n={obj['n']:<9} m={obj['m']:<10} "
              f"{obj['bytes'] / 1e6:8.1f} MB  {shards:3d} shard"
              f"{'s' if shards != 1 else ''}  {obj['source']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Deterministic MPC graph algorithms (Czumaj-Davies-Parter, SPAA 2020)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sv = sub.add_parser(
        "solve",
        help="solve one problem under one cost model via the repro.api registry",
    )
    sv.add_argument("--list", action="store_true",
                    help="list every (problem, model) registry entry")
    sv.add_argument("--verbose", action="store_true",
                    help="with --list: include descriptions and legacy entry points")
    sv.add_argument("--problem", type=str, default=None,
                    help="problem key (see --list)")
    sv.add_argument("--model", type=str, default="simulated",
                    help="cost model key (default: simulated)")
    sv.add_argument("--input", type=str, default=None,
                    help="edge-list file (generated G(n, p) otherwise)")
    sv.add_argument("--n", type=int, default=300)
    sv.add_argument("--p", type=float, default=0.03)
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--eps", type=float, default=0.5)
    sv.add_argument("--force", choices=["general", "lowdeg"], default=None,
                    help="pin the Theorem-1 path (simulated model)")
    sv.add_argument("--paper-rule", action="store_true",
                    help="use the literal Delta <= n^delta dispatch rule")
    sv.add_argument("--charge-mode", choices=["ours", "chps"], default=None,
                    help="CONGESTED CLIQUE round charging (default: ours)")
    sv.add_argument("--mode", choices=["voting", "color-compressed"], default=None,
                    help="CONGEST seed pipeline (default: color-compressed)")
    sv.add_argument("--pipeline-seed-fix", action="store_true",
                    help="CONGEST ablation: O(D + seed_bits) BFS-pipelined "
                         "seed broadcast instead of 2*D*seed_bits")
    sv.add_argument("--out", type=str, default=None,
                    help="write the solution to a file")
    sv.add_argument("--json", type=str, default=None,
                    help="write the SolveResult envelope (sans arrays) as "
                         "JSON; - for stdout")
    sv.set_defaults(fn=cmd_solve)

    for name, fn in (
        ("mis", cmd_mis),
        ("matching", cmd_matching),
        ("vc", cmd_vc),
        ("coloring", cmd_coloring),
    ):
        p = sub.add_parser(name, help=f"deterministic {name} on an edge-list file")
        p.add_argument("input", help="edge-list file (u v per line, # n=.. header)")
        _add_common(p)
        p.set_defaults(fn=fn)

    demo = sub.add_parser("demo", help="run on a generated G(n, p)")
    demo.add_argument("--n", type=int, default=500)
    demo.add_argument("--p", type=float, default=0.02)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument(
        "--algo", choices=["mis", "matching", "vc", "coloring"], default="mis"
    )
    _add_common(demo)
    demo.set_defaults(
        fn=lambda a: {"mis": cmd_mis, "matching": cmd_matching,
                      "vc": cmd_vc, "coloring": cmd_coloring}[a.algo](a)
    )

    xm = sub.add_parser(
        "crossmodel",
        help="bill one input under MPC / CONGESTED CLIQUE / CONGEST",
    )
    xm.add_argument("--input", type=str, default=None,
                    help="edge-list file (generated G(n, p) otherwise)")
    xm.add_argument("--n", type=int, default=300)
    xm.add_argument("--p", type=float, default=0.03)
    xm.add_argument("--seed", type=int, default=0)
    xm.add_argument("--eps", type=float, default=0.5)
    xm.add_argument("--problem", choices=["mis", "matching"], default="mis")
    xm.add_argument("--engine", action="store_true",
                    help="add the literal MPC engine as a fourth row")
    xm.add_argument("--out", type=str, default=None,
                    help="write the report to a file")
    xm.add_argument("--json", type=str, default=None,
                    help="write the run record as JSON; - for stdout")
    xm.set_defaults(fn=cmd_crossmodel)

    batch = sub.add_parser(
        "batch", help="run a named workload suite through the parallel runtime"
    )
    batch.add_argument("--suite", type=str, default=None,
                       help="workload suite name (see --list)")
    batch.add_argument("--list", action="store_true", help="list known suites")
    batch.add_argument("--workers", type=int, default=1,
                       help="worker processes (default 1)")
    batch.add_argument("--timeout", type=float, default=None,
                       help="per-job wall-clock budget in seconds")
    batch.add_argument("--retries", type=int, default=0,
                       help="extra attempts per failing job")
    batch.add_argument("--cache-dir", type=str, default=DEFAULT_CACHE_DIR,
                       help="result cache directory (REPRO_CACHE_DIR)")
    batch.add_argument("--no-cache", action="store_true",
                       help="disable the result cache for this run")
    batch.add_argument("--store-dir", type=str, default=None,
                       help="out-of-core graph store directory; workers mmap "
                            "CSR shards instead of receiving pickled npz "
                            "buffers (default: REPRO_GRAPH_STORE if set)")
    batch.add_argument("--out", type=str, default=None,
                       help="write per-job JobResult JSONL to a file")
    batch.add_argument("--json", type=str, default=None,
                       help="write batch stats + jobs as one JSON document")
    batch.add_argument("--report", type=str, default=None,
                       help="write a batch-level markdown report")
    batch.set_defaults(fn=cmd_batch)

    cache = sub.add_parser(
        "cache", help="inspect or clear the content-addressed result cache"
    )
    cache.add_argument("action", choices=["stats", "clear"], nargs="?",
                       default="stats")
    cache.add_argument("--cache-dir", type=str, default=DEFAULT_CACHE_DIR,
                       help="result cache directory (REPRO_CACHE_DIR)")
    cache.set_defaults(fn=cmd_cache)

    storep = sub.add_parser(
        "store", help="inspect, verify, or garbage-collect the graph store"
    )
    storep.add_argument("action", choices=["stats", "gc", "verify"],
                        nargs="?", default="stats")
    storep.add_argument("--store-dir", type=str, default=DEFAULT_STORE_DIR,
                        help="graph store directory (REPRO_GRAPH_STORE)")
    storep.add_argument("--max-bytes", type=int, default=None,
                        help="with gc: evict least-recently-opened graphs "
                             "until under this disk budget")
    storep.set_defaults(fn=cmd_store)

    docs = sub.add_parser(
        "docs",
        help="regenerate docs/THEORY.md + docs/REGISTRY.md from the registry",
    )
    docs.add_argument("--out", type=str, default="docs",
                      help="output directory (default: docs)")
    docs.add_argument("--check", action="store_true",
                      help="verify the generated docs are current "
                           "(exit 1 on drift) instead of writing")
    docs.set_defaults(fn=cmd_docs)

    from .obs.cli import add_trace_parser
    from .serve.cli import add_serve_parser

    add_trace_parser(sub)
    add_serve_parser(sub)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
