"""``repro trace`` — record, inspect, export, and conformance-check traces.

Actions (wired into :mod:`repro.__main__`)::

    repro trace record     --problem mis --model mpc-engine --out t.jsonl
    repro trace summarize  t.jsonl [--json -]
    repro trace top        t.jsonl -k 10
    repro trace diff       a.jsonl b.jsonl
    repro trace export     t.jsonl --out t.perfetto.json
    repro trace conformance --problem mis --model simulated [--symbolic]
    repro trace conformance --all      # every registry entry, exit 1 on FAIL

``record`` runs one solve under :func:`~repro.obs.trace.trace_capture`
(so it works without setting ``REPRO_TRACE``); the other actions are pure
readers over JSONL trace files and print human summaries, or JSON with
``--json`` (``-`` = stdout).
"""

from __future__ import annotations

import json
import sys

from ..graphs import gnp_random_graph, read_edge_list
from ..obs import sinks
from ..obs.trace import trace_capture
from . import conformance as _conf

__all__ = ["add_trace_parser", "cmd_trace"]


def _emit_json(dest: str, payload: dict | list) -> None:
    """Write ``payload`` as JSON to a path, or stdout when dest is ``-``."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if dest == "-":
        sys.stdout.write(text)
    else:
        with open(dest, "w") as fh:
            fh.write(text)
        print(f"  json written to {dest}")


def _print_summary(summary: dict) -> None:
    print(f"spans: {summary['spans']}  events: {summary['events']}  "
          f"wall span: {summary['wall_span']:.4f}s")
    if summary["by_name"]:
        print(f"  {'span':24s} {'count':>7s} {'total s':>10s} {'max s':>10s}")
        for name, row in summary["by_name"].items():
            print(f"  {name:24s} {row['count']:7d} "
                  f"{row['total_dur']:10.4f} {row['max_dur']:10.4f}")
    if summary["charges"]:
        print(f"  {'charge category':24s} {'rounds':>7s} {'words':>12s}")
        for cat, row in summary["charges"].items():
            print(f"  {cat:24s} {row['rounds']:7d} {row['words']:12d}")


def _record(args) -> int:
    from ..api import SolveRequest, solve

    if args.input:
        g = read_edge_list(args.input)
    else:
        g = gnp_random_graph(args.n, args.p, seed=args.seed)
    with trace_capture() as buf:
        res = solve(
            SolveRequest(
                problem=args.problem, model=args.model, graph=g, eps=args.eps
            )
        )
    spans = buf.spans
    sinks.write_jsonl(spans, args.out)
    print(f"traced {args.problem}/{args.model} on {g}: "
          f"{len(spans)} spans -> {args.out}")
    if args.perfetto:
        sinks.write_chrome_trace(spans, args.perfetto)
        print(f"  perfetto trace written to {args.perfetto} "
              f"(open in ui.perfetto.dev)")
    _print_summary(sinks.summarize(spans))
    return 0 if res.verified else 1


def _summarize(args) -> int:
    summary = sinks.summarize(sinks.read_jsonl(args.trace))
    if args.json:
        _emit_json(args.json, summary)
    else:
        _print_summary(summary)
    return 0


def _top(args) -> int:
    ranked = sinks.top_spans(sinks.read_jsonl(args.trace), k=args.k)
    if args.json:
        _emit_json(args.json, {"top": ranked})
        return 0
    print(f"top {len(ranked)} spans by duration:")
    for row in ranked:
        attrs = ", ".join(f"{k}={v}" for k, v in sorted(row["attrs"].items()))
        print(f"  {row['dur']:10.6f}s  {row['name']:24s} {attrs}")
    return 0


def _diff(args) -> int:
    diff = sinks.diff_summaries(
        sinks.summarize(sinks.read_jsonl(args.trace_a)),
        sinks.summarize(sinks.read_jsonl(args.trace_b)),
    )
    if args.json:
        _emit_json(args.json, diff)
        return 0
    print(f"spans: {diff['spans_a']} -> {diff['spans_b']}")
    print(f"  {'span':24s} {'count':>13s} {'dur delta s':>12s}")
    for name, row in diff["by_name"].items():
        print(f"  {name:24s} {row['count_a']:5d} -> {row['count_b']:5d} "
              f"{row['dur_delta']:+12.4f}")
    for cat, row in diff["charges"].items():
        print(f"  charge {cat:17s} rounds {row['rounds_delta']:+8d} "
              f"words {row['words_delta']:+12d}")
    return 0


def _export(args) -> int:
    spans = sinks.read_jsonl(args.trace)
    sinks.write_chrome_trace(spans, args.out)
    print(f"{len(spans)} spans -> {args.out} (open in ui.perfetto.dev)")
    return 0


def _conformance_all(args, sizes) -> int:
    reports = _conf.conformance_matrix(
        sizes=sizes,
        avg_deg=args.avg_deg,
        seed=args.seed,
        reps=args.reps,
        symbolic=args.symbolic,
    )
    if args.json:
        _emit_json(args.json, {"reports": reports})
        return 1 if any(r["conformant"] is False for r in reports) else 0
    scope = "totals + per-phase charge streams" if args.symbolic else "totals"
    print(f"conformance matrix: {len(reports)} registry entries ({scope})")
    width = max(len(f"{r['problem']}/{r['model']}") for r in reports)
    failed = 0
    for r in reports:
        name = f"{r['problem']}/{r['model']}"
        decided = [f for f in r["fits"] if f.get("ok") is not None]
        if r["conformant"] is None:
            verdict, detail = "----", "no decidable claims"
        elif r["conformant"]:
            verdict = "pass"
            detail = f"{len(decided)} claim(s) checked"
        else:
            verdict, failed = "FAIL", failed + 1
            bad = [
                f"{f['category'] or 'total'}:{f['metric']}"
                for f in decided
                if not f["ok"]
            ]
            detail = "violated: " + ", ".join(bad)
        print(f"  [{verdict}] {name:<{width}}  {detail}")
    if failed:
        print(f"{failed} entrie(s) violate declared claims")
        return 1
    print("all decidable claims conform")
    return 0


def _conformance(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")] if args.sizes else None
    if args.all:
        return _conformance_all(args, sizes)
    report = _conf.conformance_report(
        args.problem,
        args.model,
        sizes=sizes,
        avg_deg=args.avg_deg,
        seed=args.seed,
        reps=args.reps,
        symbolic=args.symbolic,
    )
    if args.json:
        _emit_json(args.json, report)
        return 0 if report["conformant"] is not False else 1
    scope = "totals + per-phase charge streams" if args.symbolic else "totals"
    print(f"conformance: {args.problem}/{args.model} over "
          f"n = {[r['n'] for r in report['rows']]} (x{args.reps} reps, {scope})")
    for fit in report["fits"]:
        where = fit["category"] or "total"
        if fit["ok"] is None:
            label = fit["metric"] or "-"
            print(f"  [----] {where:20s} {label:12s} {fit['status']}")
            continue
        mark = "ok " if fit["ok"] else "FAIL"
        hows = "tight fit" if fit.get("tight") else "within bound"
        print(f"  [{mark}] {where:20s} {fit['metric']:12s} ~ {fit['claim']:34s} "
              f"c = {fit['constant']:<10g} R^2 = {fit['r2']:.4f} "
              f"nrmse = {fit['nrmse']:.4f} ({hows})")
    if report.get("notes"):
        print(f"  note: {report['notes']}")
    return 0 if report["conformant"] is not False else 1


def cmd_trace(args) -> int:
    return args.trace_fn(args)


def add_trace_parser(sub) -> None:
    """Register the ``trace`` subcommand group on the main subparsers."""
    tr = sub.add_parser(
        "trace",
        help="record, summarize, diff, export, and conformance-check traces",
    )
    actions = tr.add_subparsers(dest="trace_action", required=True)

    rec = actions.add_parser("record", help="run one traced solve")
    rec.add_argument("--problem", type=str, default="mis")
    rec.add_argument("--model", type=str, default="simulated")
    rec.add_argument("--input", type=str, default=None,
                     help="edge-list file (generated G(n, p) otherwise)")
    rec.add_argument("--n", type=int, default=300)
    rec.add_argument("--p", type=float, default=0.03)
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--eps", type=float, default=0.5)
    rec.add_argument("--out", type=str, default="trace.jsonl",
                     help="JSONL trace destination")
    rec.add_argument("--perfetto", type=str, default=None,
                     help="also export a Chrome-trace/Perfetto JSON")
    rec.set_defaults(fn=cmd_trace, trace_fn=_record)

    sm = actions.add_parser("summarize", help="aggregate a JSONL trace")
    sm.add_argument("trace", help="JSONL trace file")
    sm.add_argument("--json", type=str, default=None,
                    help="write summary JSON to a path, or - for stdout")
    sm.set_defaults(fn=cmd_trace, trace_fn=_summarize)

    tp = actions.add_parser("top", help="longest individual spans")
    tp.add_argument("trace", help="JSONL trace file")
    tp.add_argument("-k", type=int, default=10)
    tp.add_argument("--json", type=str, default=None)
    tp.set_defaults(fn=cmd_trace, trace_fn=_top)

    df = actions.add_parser("diff", help="compare two traces")
    df.add_argument("trace_a", help="baseline JSONL trace")
    df.add_argument("trace_b", help="candidate JSONL trace")
    df.add_argument("--json", type=str, default=None)
    df.set_defaults(fn=cmd_trace, trace_fn=_diff)

    ex = actions.add_parser(
        "export", help="convert a JSONL trace to Chrome-trace/Perfetto JSON"
    )
    ex.add_argument("trace", help="JSONL trace file")
    ex.add_argument("--out", type=str, required=True,
                    help="Perfetto JSON destination")
    ex.set_defaults(fn=cmd_trace, trace_fn=_export)

    cf = actions.add_parser(
        "conformance",
        help="check measured cost series against declared symbolic claims",
    )
    cf.add_argument("--problem", type=str, default="mis")
    cf.add_argument("--model", type=str, default="simulated")
    cf.add_argument("--all", action="store_true",
                    help="sweep every registry entry (the full problem x "
                         "model matrix); exit 1 if any entry violates a "
                         "declared claim")
    cf.add_argument("--sizes", type=str, default=None,
                    help="comma-separated n values (default 64,128,256,512)")
    cf.add_argument("--avg-deg", type=float, default=6.0)
    cf.add_argument("--seed", type=int, default=7)
    cf.add_argument("--reps", type=int, default=3,
                    help="graphs averaged per size (instance-noise smoothing)")
    cf.add_argument("--symbolic", action="store_true",
                    help="also check each declared charge category's "
                         "per-phase stream (solves run under the tracer)")
    cf.add_argument("--json", type=str, default=None,
                    help="write the full report JSON (- for stdout)")
    cf.set_defaults(fn=cmd_trace, trace_fn=_conformance)
