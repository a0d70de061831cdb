"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``solve``      one problem under one cost model through the ``repro.api``
               registry (``--list`` shows every (problem, model) entry;
               ``--model all`` bills one input under every model)
``batch``      run a named workload suite through the parallel runtime
``serve``      run the always-on solver service (HTTP or stdio JSON lines)
``cache``      inspect / clear the content-addressed result cache
``store``      inspect / verify / gc the out-of-core graph store
``trace``      record / summarize / diff / export traces, check conformance
``docs``       regenerate docs/THEORY.md + docs/REGISTRY.md from the registry

Every solve goes through :func:`repro.api.solve`.

Examples::

    python -m repro solve --list
    python -m repro solve --problem mis --model cclique --n 300 --p 0.03
    python -m repro solve --problem mis --input graph.edges --eps 0.6 --out mis.txt
    python -m repro solve --problem matching --force lowdeg --report run.md
    python -m repro solve --problem mis --model all
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
from .graphs import gnp_random_graph, read_edge_list

#: The entries whose raw result is the ``MISResult`` / ``MatchingResult``
#: that :func:`repro.analysis.run_report` renders for ``--report``.
_RUN_REPORT_ENTRIES = (("mis", "simulated"), ("matching", "simulated"))


def _requests(args) -> list[SolveRequest]:
    """The solves ``repro solve`` runs: one, or one per registered model
    with ``--model all``, which hands ``--force`` / ``--paper-rule`` and
    each option flag only to the entries that read them.

    Raises ``ValueError`` / ``OSError`` for a usage error, before anything
    is solved.
    """
    every = args.model == "all"
    models = REGISTRY.models(args.problem) if every else [args.model]
    if not models:
        raise ValueError(
            f"unknown problem {args.problem!r}; "
            f"pick from {tuple(REGISTRY.problems())}"
        )
    if every and args.out:
        raise ValueError("--out writes one solution; --model all has one per model")
    entry = (args.problem, args.model)
    if args.report and not every and entry not in _RUN_REPORT_ENTRIES:
        raise ValueError(
            "--report needs --model all, or a simulated mis or matching solve"
        )
    options = {}
    if args.charge_mode:
        options["charge_mode"] = args.charge_mode
    if args.mode:
        options["mode"] = args.mode
    overrides = {"congest_pipeline_seed_fix": True} if args.pipeline_seed_fix else {}
    g = (
        read_edge_list(args.input)
        if args.input
        else gnp_random_graph(args.n, args.p, seed=args.seed)
    )
    requests = []
    for model in models:
        force, paper_rule, opts = args.force, args.paper_rule, options
        if every:  # each entry gets only the flags it reads
            entry = REGISTRY.get(args.problem, model)
            if not entry.capabilities.force_path:
                force, paper_rule = None, False
            opts = {k: v for k, v in options.items() if k in entry.options}
        requests.append(
            SolveRequest(
                problem=args.problem,
                model=model,
                graph=g,
                eps=args.eps,
                force=force,
                paper_rule=paper_rule,
                overrides=overrides,
                options=opts,
            )
        )
    for request in requests:
        request.make_params()
    return requests


def _summary(res, g) -> None:
    """The human summary of one solve."""
    print(f"solve {res.problem} under {res.model} on {g}")
    print(f"  verified: {res.verified} ({res.certificate.get('verifier')})")
    extras = sorted(
        (k, v) for k, v in res.certificate.items() if k not in ("verifier", "ok")
    )
    if extras:
        print("  certificate: " + ", ".join(f"{k}={v}" for k, v in extras))
    print(f"  |solution| = {res.solution_size} ({res.solution_kind})")
    print(f"  rounds: {res.rounds}  iterations/phases: {res.iterations}")
    print(f"  words moved: {res.words_moved}")
    print(f"  space high-water: {res.max_machine_words}/{res.space_limit} words")
    if res.path:
        print(f"  path: {res.path}")
    events = getattr(res.raw, "fidelity_events", None)
    if events:
        print(f"  fidelity events: {len(events)}")
    print(f"  wall time: {res.wall_time:.3f}s")
    if res.trace is not None:
        print(f"  trace: {len(res.trace)} spans recorded")


def _write(path: str, text: str, what: str, quiet: bool) -> None:
    with open(path, "w") as fh:
        fh.write(text)
    if not quiet:
        print(f"  {what} written to {path}")


def cmd_solve(args) -> int:
    if args.list:
        print(f"{'problem':9s} {'model':11s} capabilities")
        for e in REGISTRY.entries():
            print(f"{e.problem:9s} {e.model:11s} {e.capabilities.flags()}")
            if args.verbose:
                print(f"  {e.description}  [{e.legacy_entry}]")
        return 0
    if not args.problem:
        print("error: --problem required (or --list to see entries)",
              file=sys.stderr)
        return 2
    try:
        # Everything a user can get wrong is checked here and exits 2; the
        # solves run outside this try so real solver failures keep their
        # tracebacks.
        requests = _requests(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from .analysis import cross_model_report, run_report
    from .analysis.cli import _emit_json

    g = requests[0].graph
    results = [solve(request) for request in requests]
    quiet = args.json == "-"  # stdout carries the JSON and nothing else
    if args.model == "all":
        title = f"cross-model {args.problem} on {g}"
        report = cross_model_report(results, title=title)
        if not quiet:
            print(report)
        if args.report:
            _write(args.report, report, "report", quiet)
        if args.json:
            _emit_json(args.json, [res.to_payload()[0] for res in results])
        return 0 if all(res.verified for res in results) else 1

    res = results[0]
    if not quiet:
        _summary(res, g)
    if args.report:
        title = f"{res.problem} under {res.model} on {g}"
        _write(args.report, run_report(res.raw, title=title), "report", quiet)
    if args.json:
        _emit_json(args.json, res.to_payload()[0])
    if args.out:
        rows = res.solution.tolist()
        if res.solution_kind == "pairs":
            rows = (f"{u} {v}" for u, v in rows)
        _write(args.out, "".join(f"{row}\n" for row in rows), "solution", quiet)
    return 0 if res.verified else 1


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
            store=args.store_dir,  # None -> REPRO_GRAPH_STORE, else private
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with sched:
        batch = sched.run(specs)
        store_root = sched.store.root
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
    line = f"  store: {st.store_hits} hits, {st.store_misses} built ({store_root})"
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
        n, m = ("?" if v is None else v for v in (obj["n"], obj["m"]))
        print(f"  {obj['fingerprint'][:16]}..  n={n:<9} m={m:<10} "
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
        help="solve one problem under one cost model (or every model) via "
             "the repro.api registry",
    )
    sv.add_argument("--list", action="store_true",
                    help="list every (problem, model) registry entry")
    sv.add_argument("--verbose", action="store_true",
                    help="with --list: include descriptions and legacy entry points")
    sv.add_argument("--problem", type=str, default=None,
                    help="problem key (see --list)")
    sv.add_argument("--model", type=str, default="simulated",
                    help="cost model key (default: simulated); all = one "
                         "solve per registered model, billed side by side")
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
                         "JSON; - prints only the JSON to stdout")
    sv.add_argument("--report", type=str, default=None,
                    help="write a markdown run report (simulated mis / "
                         "matching) or, with --model all, the cross-model bill")
    sv.set_defaults(fn=cmd_solve)

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
                       help="out-of-core graph store directory workers mmap "
                            "CSR shards from (default: REPRO_GRAPH_STORE if "
                            "set, else a temporary store removed at exit)")
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

    from .analysis.cli import add_trace_parser
    from .serve.cli import add_serve_parser

    add_trace_parser(sub)
    add_serve_parser(sub)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
