"""Peak memory of the graph store's out-of-core build.

Every runtime job reaches its worker through the store
(``repro.graphs.store``), so the build's memory curve is the one this bench
gates: a subprocess streams a block-sampled G(n, p) through
``GraphStore.ensure_generator`` — edge blocks to spill files to CSR shards,
never the full edge list — and its ``ru_maxrss`` increase over the
post-import baseline must stay *below the byte size of the materialised CSR
arrays* it would otherwise have built.  A second subprocess materialises the
same graph in memory for the informational A/B ratio.

Modes: ``--smoke`` (CI-sized) / default full; ``--check PATH`` gates
against a baseline; ``--write-baseline [PATH]`` refreshes it.
Artifacts: ``benchmarks/results/BENCH_graph_store.json``; baseline at
``benchmarks/baselines/BENCH_graph_store_baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit_json  # noqa: E402

#: The children import ``repro`` from here; this process never does.
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
BASELINE_PATH = (
    Path(__file__).parent / "baselines" / "BENCH_graph_store_baseline.json"
)

#: --check fails when the headroom falls below baseline / factor; it
#: wobbles with allocator behaviour, so the factor is generous.
HEADROOM_FACTOR = 2.5

#: Subprocess body for the RSS measurement.  argv: mode n p store_root.
#: ``ru_maxrss`` is sampled after the imports, so ``peak - base`` is the
#: build's own high-water mark, not the interpreter's.
_RSS_CHILD = """
import json, resource, sys
mode, n, p, root = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
from repro.graphs import GraphStore
from repro.graphs.streaming import gnp_block_graph
base_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if mode == "stream":
    info = GraphStore(root).ensure_generator(
        "gnp_block_graph", {"n": n, "p": p, "seed": 1}, label="bench"
    )
    gn, gm = info.n, info.m
else:
    g = gnp_block_graph(n, p, seed=1)
    gn, gm = g.n, g.m
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"base_kb": base_kb, "peak_kb": peak_kb, "n": gn, "m": gm}))
"""


def _rss_child(mode: str, n: int, p: float, root: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, mode, str(n), str(p), root],
        capture_output=True,
        text=True,
        check=False,
        env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"rss child ({mode}) failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _rss_case(n: int, p: float) -> dict:
    """Peak-RSS increase of the streaming store build vs materialising."""
    with tempfile.TemporaryDirectory(prefix="bench-graph-store-") as tmp:
        stream = _rss_child("stream", n, p, tmp)
    with tempfile.TemporaryDirectory(prefix="bench-graph-store-") as tmp:
        inmem = _rss_child("inmem", n, p, tmp)
    if (stream["n"], stream["m"]) != (inmem["n"], inmem["m"]):
        raise RuntimeError("stream and in-memory builds disagree on (n, m)")
    m = stream["m"]
    # Canonical CSR footprint: edges_u/v (8m each), indices + arc_edge_ids
    # (16m each, 2m arcs), indptr (8(n+1)) — what the in-memory path holds
    # at rest, before counting its own sort temporaries.
    materialized = 48 * m + 8 * (n + 1)
    stream_inc = (stream["peak_kb"] - stream["base_kb"]) * 1024
    inmem_inc = (inmem["peak_kb"] - inmem["base_kb"]) * 1024
    return {
        "n": n,
        "p": p,
        "m": m,
        "materialized_mb": materialized / 2**20,
        "stream_increase_mb": stream_inc / 2**20,
        "inmem_increase_mb": inmem_inc / 2**20,
        "headroom": materialized / stream_inc if stream_inc > 0 else float("inf"),
        "vs_inmem": inmem_inc / stream_inc if stream_inc > 0 else float("inf"),
    }


def run(mode: str) -> dict:
    if mode == "smoke":
        # ~8e6 edges: 4 CSR shards, ~390 MB materialised — big enough that
        # the per-shard working set is visibly smaller, small enough for CI.
        rss = _rss_case(n=100_000, p=160.0 / 100_000)
    else:
        # The million-node regime the large-sweep suite targets; average
        # degree 24 keeps the shard count (and the gate's margin) up.
        rss = _rss_case(n=1_000_000, p=24.0 / 1_000_000)
    return {
        "mode": mode,
        "acceptance_ok": rss["headroom"] > 1.0,
        "cases": {"rss": rss},
    }


def check_regression(payload: dict, baseline_path: Path) -> list[str]:
    """Gate failures (empty = green): the contract + drift vs baseline."""
    problems = []
    rss = payload["cases"]["rss"]
    if rss["headroom"] <= 1.0:
        problems.append(
            f"rss: streaming build peak increase {rss['stream_increase_mb']:.0f}"
            f" MB is not below the materialised CSR size "
            f"{rss['materialized_mb']:.0f} MB"
        )
    try:
        baseline = json.loads(baseline_path.read_text())
    except OSError as exc:
        problems.append(f"baseline {baseline_path} unreadable: {exc}")
        return problems
    except json.JSONDecodeError as exc:
        problems.append(f"baseline {baseline_path} is not valid JSON: {exc}")
        return problems
    if baseline.get("mode") != payload["mode"]:
        problems.append(
            f"baseline was recorded in {baseline.get('mode')!r} mode but this "
            f"run is {payload['mode']!r}; refresh with --write-baseline"
        )
        return problems
    base = baseline["cases"]["rss"]["headroom"]
    floor = base / HEADROOM_FACTOR
    if rss["headroom"] < floor:
        problems.append(
            f"rss: headroom {rss['headroom']:.2f}x fell below {floor:.2f}x "
            f"(baseline {base:.2f}x / {HEADROOM_FACTOR:g})"
        )
    return problems


def write_baseline(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    slim = {
        "mode": payload["mode"],
        "cases": {
            "rss": {"headroom": round(payload["cases"]["rss"]["headroom"], 3)},
        },
    }
    path.write_text(json.dumps(slim, indent=2, sort_keys=True) + "\n")
    print(f"[baseline] wrote {path}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true", help="small CI-sized run")
    ap.add_argument(
        "--check", metavar="PATH", help="regression-gate against a baseline JSON"
    )
    ap.add_argument(
        "--write-baseline",
        nargs="?",
        const=str(BASELINE_PATH),
        metavar="PATH",
        help="write this run's gated ratio as the new baseline",
    )
    args = ap.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    payload = run(mode)
    rss = payload["cases"]["rss"]

    print(f"graph-store benchmark [{mode}]")
    print(
        f"  rss       n={rss['n']:,} m={rss['m']:,}:  "
        f"stream=+{rss['stream_increase_mb']:.0f}MB  "
        f"inmem=+{rss['inmem_increase_mb']:.0f}MB  "
        f"materialized={rss['materialized_mb']:.0f}MB  "
        f"headroom={rss['headroom']:.2f}x"
    )
    verdict = "PASS" if payload["acceptance_ok"] else "FAIL"
    print(f"acceptance: streaming RSS below materialised size: {verdict}")
    emit_json("graph_store", payload)

    if args.write_baseline:
        write_baseline(Path(args.write_baseline), payload)

    if args.check:
        problems = check_regression(payload, Path(args.check))
        if problems:
            for p in problems:
                print(f"REGRESSION: {p}", file=sys.stderr)
            return 1
        print("regression gate: green")
        return 0
    return 0 if payload["acceptance_ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
