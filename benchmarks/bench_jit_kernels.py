"""Numba-JIT fused kernels vs the vectorized csr paths: timing + parity gate.

Each case runs the ``csr``/numpy implementation and the ``jit`` twin from
:mod:`repro.graphs.kernels_jit` / :mod:`repro.derand.seed_jit` on the same
instance, asserts the outputs are *identical* (the backends are
bit-equivalent by contract) and reports the speedup.  The stage seed scan
has no jit twin: its sparse kernel hashes each distinct id once per seed
block, so there is no per-item hash loop to fuse.  Both sides are warmed
once before timing, so compilation cost never enters the ratios (it is
observable separately via the ``jit.compile`` span).

Without numba the jit twins execute as plain Python loops -- still exact,
which keeps the parity assertions meaningful everywhere -- so instance
sizes shrink to smoke scale and only parity is gated.  The payload records
``"numba"`` so downstream tooling can tell the two regimes apart.

Modes
-----
``--smoke``            small instances (CI-sized, a few seconds end to end)
default (full)         ``n = 10_000`` instances (numba only)
``--check PATH``       after running, gate: parity always; with numba
                       additionally a regression compare against the
                       baseline when it was recorded under the same
                       mode/numba regime; exit 1 on any failure
``--write-baseline [PATH]``
                       refresh the checked-in baseline from this run

Artifacts: ``benchmarks/results/BENCH_jit_kernels.json`` via the standard
emitter; the checked-in baseline lives at
``benchmarks/baselines/BENCH_jit_kernels_baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import (  # noqa: E402
    emit_json,
    speedup_case,
)

from repro.core.lowdeg import _a_set_weight  # noqa: E402
from repro.derand.seed_jit import make_lowdeg_objective  # noqa: E402
from repro.graphs import gnp_random_graph  # noqa: E402
from repro.graphs import kernels, kernels_jit  # noqa: E402
from repro.graphs.coloring import (  # noqa: E402
    _first_free_points,
    _linial_field,
    _poly_evals,
    distance2_coloring,
)
from repro.graphs.power import square_graph  # noqa: E402
from repro.hashing.families import make_color_family  # noqa: E402

BASELINE_PATH = (
    Path(__file__).parent / "baselines" / "BENCH_jit_kernels_baseline.json"
)

#: Fail --check when a gated case's speedup drops below baseline / this factor
#: (only compared when the baseline was recorded under the same regime).
REGRESSION_FACTOR = 2.0

GATED_CASES = ("lowdeg_phase_objective",)


def _case(name, csr_fn, jit_fn, same_fn, repeats, meta):
    # Warm both sides: the first jit call compiles (recorded as the
    # ``jit.compile`` span); timings below are warm-path only.
    csr_fn()
    jit_fn()
    return speedup_case(
        name, csr_fn, jit_fn, same_fn, repeats, meta, labels=("csr", "jit")
    )


def _segment_cases(g, S, repeats, rng):
    """The three gated block kernels on the graph's CSR adjacency."""
    vals = rng.integers(0, 1 << 40, size=(S, g.n), dtype=np.uint64)
    fill = np.uint64(np.iinfo(np.uint64).max)
    mask = rng.random((S, g.n)) < 0.2
    arc_mask = rng.random((S, g.indices.size)) < 0.2
    meta = {"n": g.n, "m": g.m, "seed_block": S}
    min_csr = kernels.segment_min_block_fn(g.indices, g.indptr, g.n)
    min_jit = kernels_jit.segment_min_block_fn(g.indices, g.indptr, g.n)
    any_csr = kernels.segment_any_block_fn(g.indices, g.indptr, g.n)
    any_jit = kernels_jit.segment_any_block_fn(g.indices, g.indptr, g.n)
    return [
        _case(
            "segment_min_block",
            lambda: min_csr(vals, fill),
            lambda: min_jit(vals, fill),
            np.array_equal,
            repeats,
            meta,
        ),
        _case(
            "segment_any_block",
            lambda: any_csr(mask),
            lambda: any_jit(mask),
            np.array_equal,
            repeats,
            meta,
        ),
        _case(
            "segment_count_2d",
            lambda: kernels.segment_count_2d(arc_mask, g.indptr),
            lambda: kernels_jit.segment_count_2d(arc_mask, g.indptr),
            np.array_equal,
            repeats,
            meta,
        ),
    ]


def _lowdeg_case(g, S, repeats):
    """One low-degree Luby phase objective over a seed block.

    csr side: the (S, n) key grid + block neighbour-min/any closure from
    ``lowdeg_mis``; jit side: the fused three-pass select/reduce.
    """
    n = g.n
    coloring = distance2_coloring(g)
    family = make_color_family(coloring.num_colors)
    colors = coloring.colors.astype(np.int64)
    a_mask, _ = _a_set_weight(g)
    deg = g.degrees()
    live = np.nonzero(deg > 0)[0].astype(np.int64)
    deg_sel = (deg * a_mask).astype(np.int64)
    stride = np.uint64(n + 1)
    key_dtype = np.uint32 if family.range * (n + 1) + n < 2**32 else np.uint64
    stride_k = key_dtype(stride)
    maxkey_k = key_dtype(np.iinfo(key_dtype).max)
    live_k = live.astype(key_dtype)
    nbr_min_fn = kernels.segment_min_block_fn(g.indices, g.indptr, n)
    nbr_any_fn = kernels.segment_any_block_fn(g.indices, g.indptr, n)

    def numpy_objective(seeds):
        z = family.evaluate_colors_batch(seeds, colors[live]).astype(key_dtype)
        key_full = np.full((z.shape[0], n), maxkey_k, dtype=key_dtype)
        key_full[:, live] = z * stride_k + live_k[None, :]
        nbr_min = nbr_min_fn(key_full, maxkey_k)
        i_mask = np.zeros(key_full.shape, dtype=bool)
        i_mask[:, live] = key_full[:, live] < nbr_min[:, live]
        covered = nbr_any_fn(i_mask)
        return ((covered | i_mask) @ deg_sel).astype(np.float64)

    fused = make_lowdeg_objective(
        family, colors[live], live, g.indices, g.indptr, deg_sel, n
    )
    seeds = np.arange(1, S + 1, dtype=np.int64)
    return _case(
        "lowdeg_phase_objective",
        lambda: numpy_objective(seeds),
        lambda: fused(seeds),
        np.array_equal,
        repeats,
        {"n": g.n, "m": g.m, "seed_block": S},
    )


def _linial_case(g, repeats):
    """The Linial clash kernel on G^2: first free evaluation point per node."""
    g2 = square_graph(g)
    q, d = _linial_field(g2.max_degree(), max(g2.n, 1))
    _, evals = _poly_evals(np.arange(g2.n, dtype=np.int64), q, d)
    return _case(
        "linial_first_free",
        lambda: _first_free_points(g2, evals, q),
        lambda: kernels_jit.linial_first_free(evals, g2.indices, g2.indptr),
        np.array_equal,
        repeats,
        {"n": g2.n, "m": g2.m, "q": q, "d": d},
    )


def run(mode: str, seed: int) -> dict:
    numba_on = kernels_jit.available()
    if mode == "smoke" or not numba_on:
        # Without numba the jit bodies are interpreted Python; keep sizes
        # small so the parity sweep stays fast.
        n, avg_deg, repeats = 400, 10, 3
        s_seg, s_low = 16, 8
    else:
        n, avg_deg, repeats = 10_000, 8, 3
        s_seg, s_low = 64, 64
    rng = np.random.default_rng(seed)
    g = gnp_random_graph(n, avg_deg / n, seed=seed)
    cases = dict(
        _segment_cases(g, s_seg, repeats, rng)
        + [
            _lowdeg_case(g, s_low, repeats),
            _linial_case(g, repeats),
        ]
    )
    return {
        "mode": mode,
        "numba": numba_on,
        "graph": {"n": g.n, "m": g.m},
        "cases": cases,
    }


def check_gate(payload: dict, baseline_path: Path) -> list[str]:
    """Gate failures (empty = green).

    Parity is gated in every regime.  Compiled-speed criteria only apply
    where compiled code actually ran: gated-case speedups are compared
    against the baseline when it was recorded under the same mode/numba
    regime (cross-regime ratios are incomparable by design -- the
    checked-in baseline may come from a numba-less builder).
    """
    problems = []
    for name, case in payload["cases"].items():
        if not case["identical"]:
            problems.append(f"{name}: jit and csr outputs DIVERGED")
    try:
        baseline = json.loads(baseline_path.read_text())
    except OSError as exc:
        problems.append(f"baseline {baseline_path} unreadable: {exc}")
        return problems
    except json.JSONDecodeError as exc:
        problems.append(f"baseline {baseline_path} is not valid JSON: {exc}")
        return problems
    if not payload["numba"]:
        return problems
    if baseline.get("numba") and baseline.get("mode") == payload["mode"]:
        for name, base_case in baseline["cases"].items():
            if name not in GATED_CASES:
                continue
            cur = payload["cases"].get(name)
            if cur is None:
                problems.append(f"{name}: present in baseline but not run")
                continue
            floor = base_case["speedup"] / REGRESSION_FACTOR
            if cur["speedup"] < floor:
                problems.append(
                    f"{name}: speedup {cur['speedup']:.2f}x fell below "
                    f"{floor:.2f}x (baseline {base_case['speedup']:.2f}x / "
                    f"{REGRESSION_FACTOR:g})"
                )
    return problems


def write_baseline(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    slim = {
        "mode": payload["mode"],
        "numba": payload["numba"],
        "cases": {
            k: {"speedup": round(v["speedup"], 3)}
            for k, v in payload["cases"].items()
            if k in GATED_CASES
        },
    }
    path.write_text(json.dumps(slim, indent=2, sort_keys=True) + "\n")
    print(f"[baseline] wrote {path}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true", help="small CI-sized run")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument(
        "--check",
        metavar="PATH",
        help="gate parity/acceptance/regression against a baseline JSON",
    )
    ap.add_argument(
        "--write-baseline",
        nargs="?",
        const=str(BASELINE_PATH),
        metavar="PATH",
        help="write this run's gated speedups as the new baseline",
    )
    args = ap.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    payload = run(mode, args.seed)

    width = max(len(k) for k in payload["cases"])
    numba_note = "numba" if payload["numba"] else "no numba: interpreted jit bodies"
    print(f"jit kernel benchmark [{mode}, {numba_note}] on {payload['graph']}")
    for name, case in payload["cases"].items():
        print(
            f"  {name:<{width}}  csr={case['csr_s'] * 1e3:9.2f}ms  "
            f"jit={case['jit_s'] * 1e3:9.2f}ms  speedup={case['speedup']:7.2f}x  "
            f"identical={case['identical']}"
        )
    emit_json("jit_kernels", payload)

    if args.write_baseline:
        write_baseline(Path(args.write_baseline), payload)

    if args.check:
        problems = check_gate(payload, Path(args.check))
        if problems:
            for p in problems:
                print(f"GATE FAILURE: {p}", file=sys.stderr)
            return 1
        print("jit gate: green")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
