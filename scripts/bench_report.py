#!/usr/bin/env python
"""Aggregate every ``BENCH_*.json`` artifact into one ``BENCH_summary.json``.

Each bench already writes a machine-readable ``BENCH_<name>.json`` via
``benchmarks/_common.emit_json``; this script merges them (per bench, per
case: the winning backend, its best wall time, and the case's speedup /
parity flags) so dashboards and the CI artifact consumer read a single
file instead of N.  Run after the bench-smoke sweep::

    python scripts/bench_report.py [--results-dir benchmarks/results]

The summary is written into the directory it summarizes.

Exit status is 0 even when some artifacts are unreadable (they are listed
under ``unreadable`` in the summary); it is 1 only when there is nothing
to merge at all — an empty sweep is a broken sweep.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from _common import emit_json, summarize_results  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--results-dir",
        default=str(Path(__file__).resolve().parent.parent / "benchmarks" / "results"),
        help="directory holding the BENCH_*.json artifacts",
    )
    args = ap.parse_args(argv)

    results_dir = Path(args.results_dir)
    summary = summarize_results(results_dir)
    if not summary["benches"]:
        print(f"no BENCH_*.json artifacts under {args.results_dir}", file=sys.stderr)
        return 1
    for bench, rec in summary["benches"].items():
        print(f"{bench} [{rec['mode']}] ({rec['source']})")
        for case, info in rec["cases"].items():
            extra = ""
            if "speedup" in info:
                extra += f"  speedup={info['speedup']:.2f}x"
            if "identical" in info:
                extra += f"  identical={info['identical']}"
            print(
                f"  {case}: best={info['best_backend']} "
                f"({info['best_s'] * 1e3:.2f}ms){extra}"
            )
    for name in summary.get("unreadable", ()):
        print(f"unreadable artifact skipped: {name}", file=sys.stderr)
    emit_json("summary", summary, results_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
