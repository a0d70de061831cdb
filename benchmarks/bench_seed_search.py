"""Seed blocks vs one seed per call: timing, parity, regression gate.

For each case the bench runs the same natively-batched objective through
the seed engine twice: "scalar" with ``chunk_size=1`` (one seed per
objective call -- the serial behaviour of the pre-batching engine) and
"batched" with the default block size (seed blocks with geometric ramp +
early exit).  It asserts the two
:class:`~repro.derand.strategies.SeedSelection` outcomes are *identical*
(the block size never changes the outcome) and reports the speedup.

Cases
-----
``stage_scan``      full-budget stage goodness scan (the Sections-3.2/4.2
                    all-machines-good search) -- the acceptance case: the
                    full run must show >= 5x at n=10k
``stage_cond_exp``  conditional-expectation descent over an enumerable
                    family on the same goodness objective
``stage_best_of``   best-of-prefix on the same objective
``lowdeg_e2e``      end-to-end ``lowdeg_mis`` with stressed targets (every
                    phase exhausts its scan budget, so seed scanning
                    dominates), ``DEFAULT_SEED_CHUNK`` set to 1 vs the
                    default

Modes
-----
``--smoke``            small instances (CI-sized, a few seconds end to end)
default (full)         ``n = 10_000``; prints the >= 5x acceptance line
``--check PATH``       compare speedups against a baseline JSON; exit 1 on
                       a > 2x regression of a gated case or any parity
                       failure (the CI bench-smoke gate)
``--write-baseline [PATH]``
                       refresh the checked-in baseline from this run

Artifacts: ``benchmarks/results/BENCH_seed_search.json``; the checked-in
baseline lives at ``benchmarks/baselines/BENCH_seed_search_baseline.json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import (  # noqa: E402
    check_speedup_regression,
    emit_json,
    speedup_case,
    write_speedup_baseline,
)

from repro.core import Params, lowdeg_mis  # noqa: E402
from repro.core.stage import MachineGroupSpec, StageGoodness  # noqa: E402
from repro.derand import strategies as derand_strategies  # noqa: E402
from repro.derand.strategies import select_seed_batch  # noqa: E402
from repro.graphs import gnp_random_graph, random_regular_graph  # noqa: E402
from repro.hashing.kwise import make_family  # noqa: E402
from repro.mpc.partition import chunk_items_by_group  # noqa: E402

BASELINE_PATH = (
    Path(__file__).parent / "baselines" / "BENCH_seed_search_baseline.json"
)

#: Fail --check when a case's speedup drops below baseline / this factor.
REGRESSION_FACTOR = 2.0

#: Cases whose smoke-size runtimes are large enough for a stable speedup
#: ratio on shared CI runners; the rest are still run and parity-checked.
GATED_CASES = ("stage_scan",)


def _case(name, scalar_fn, batched_fn, same_fn, repeats, meta):
    return speedup_case(
        name, scalar_fn, batched_fn, same_fn, repeats, meta,
        labels=("scalar", "batched"),
    )


def _make_stage_goodness(
    n: int, avg_deg: float, seed: int, k: int = 4, min_q: int = 257
):
    """A realistic stage search instance: type-A machine goodness on a gnp."""
    g = gnp_random_graph(n, avg_deg / n, seed=seed)
    params = Params()
    family = make_family(n, k=k, min_q=min_q)
    eids = np.arange(g.m, dtype=np.int64) % family.q
    spec = MachineGroupSpec(
        name="A",
        grouping=chunk_items_by_group(
            g.edges_u.astype(np.int64), params.chunk_size(n)
        ),
        unit_ids=eids,
    )
    threshold = family.threshold(params.sample_prob(n))
    p_real = threshold / family.range
    mus = [p_real * spec.weight_totals()]
    base = [np.sqrt(spec.grouping.loads.astype(np.float64)) + 1.0]
    goodness = StageGoodness(family, threshold, [spec], mus, base)
    total = float(spec.grouping.num_machines)
    return family, goodness, total, {"n": g.n, "m": g.m}


def _stage_scan_case(n, avg_deg, seed, max_trials, repeats):
    family, goodness, total, meta = _make_stage_goodness(n, avg_deg, seed)
    kw = dict(
        strategy="scan",
        target=total + 1.0,  # unreachable: the scan runs its full budget
        max_trials=max_trials,
        start=1,
    )

    def run(chunk):
        # fresh goodness state per run is unnecessary: counts are pure
        return select_seed_batch(
            family.size,
            lambda s: goodness.counts(s, (1.0,))[0],  # a one-rung ladder
            chunk_size=chunk,
            **kw,
        )

    return _case(
        "stage_scan",
        lambda: run(1),
        lambda: run(None),
        lambda a, b: a == b,
        repeats,
        {**meta, "trials": max_trials},
    )


def _stage_enum_case(name, strategy, n, avg_deg, seed, repeats, **extra):
    # Enumerable family (k=2 over a small field) for the literal
    # Section-2.4 descent / best-of ablations.
    family, goodness, total, meta = _make_stage_goodness(
        n, avg_deg, seed, k=2, min_q=5
    )
    kw = dict(strategy=strategy, target=total + 1.0, **extra)

    def run(chunk):
        return select_seed_batch(
            family.size,
            lambda s: goodness.counts(s, (1.0,))[0],  # a one-rung ladder
            chunk_size=chunk,
            **kw,
        )

    return _case(
        name,
        lambda: run(1),
        lambda: run(None),
        lambda a, b: a == b,
        repeats,
        meta,
    )


def _lowdeg_e2e_case(n, repeats):
    g = random_regular_graph(n, 4, seed=7)
    # Stressed targets: every phase misses and exhausts max_scan_trials, so
    # the run is seed-scan-bound -- the regime the batched engine targets.
    def run(chunk):
        # The one-seed side substitutes the block constant for its run.
        default = derand_strategies.DEFAULT_SEED_CHUNK
        derand_strategies.DEFAULT_SEED_CHUNK = chunk or default
        try:
            return lowdeg_mis(g, Params(target_safety=2000.0))
        finally:
            derand_strategies.DEFAULT_SEED_CHUNK = default

    def same(a, b):
        return (
            np.array_equal(a.independent_set, b.independent_set)
            and [r.selection_trials for r in a.records]
            == [r.selection_trials for r in b.records]
            and [r.selection_value for r in a.records]
            == [r.selection_value for r in b.records]
        )

    return _case(
        "lowdeg_e2e",
        lambda: run(1),
        lambda: run(None),
        same,
        repeats,
        {"n": g.n, "m": g.m},
    )


def run(mode: str, seed: int) -> dict:
    if mode == "smoke":
        n, avg_deg, trials, repeats = 400, 10, 256, 3
        n_enum, n_lowdeg = 60, 400
    else:
        n, avg_deg, trials, repeats = 10_000, 8, 512, 3
        n_enum, n_lowdeg = 150, 10_000
    cases = dict(
        [
            _stage_scan_case(n, avg_deg, seed, trials, repeats),
            _stage_enum_case(
                "stage_cond_exp",
                "conditional_expectation",
                n_enum,
                10,
                seed,
                repeats,
                enumeration_cap=1 << 17,
            ),
            _stage_enum_case(
                "stage_best_of", "best_of", n_enum, 10, seed, repeats,
                best_of_k=512,
            ),
            _lowdeg_e2e_case(n_lowdeg, repeats),
        ]
    )
    return {"mode": mode, "cases": cases}


def check_regression(payload: dict, baseline_path: Path) -> list[str]:
    """Gate failures (empty = green); see :func:`check_speedup_regression`."""
    return check_speedup_regression(
        payload,
        baseline_path,
        GATED_CASES,
        REGRESSION_FACTOR,
        "batched and scalar outcomes DIVERGED",
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true", help="small CI-sized run")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument(
        "--check", metavar="PATH", help="regression-gate against a baseline JSON"
    )
    ap.add_argument(
        "--write-baseline",
        nargs="?",
        const=str(BASELINE_PATH),
        metavar="PATH",
        help="write this run's speedups as the new baseline",
    )
    args = ap.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    payload = run(mode, args.seed)

    width = max(len(k) for k in payload["cases"])
    print(f"seed-search benchmark [{mode}]")
    for name, case in payload["cases"].items():
        print(
            f"  {name:<{width}}  scalar={case['scalar_s'] * 1e3:9.2f}ms  "
            f"batched={case['batched_s'] * 1e3:9.2f}ms  "
            f"speedup={case['speedup']:7.2f}x  identical={case['identical']}"
        )
    if mode == "full":
        scan = payload["cases"]["stage_scan"]
        ok = scan["speedup"] >= 5.0
        payload["acceptance_stage_scan_5x"] = bool(ok)
        print(
            f"acceptance: batched stage seed scan at n=10k is "
            f"{scan['speedup']:.1f}x (>= 5x required): {'PASS' if ok else 'FAIL'}"
        )
        e2e = payload["cases"]["lowdeg_e2e"]
        ok2 = e2e["speedup"] > 1.0
        payload["acceptance_lowdeg_e2e_faster"] = bool(ok2)
        print(
            f"acceptance: scan-bound lowdeg pipeline batched vs scalar is "
            f"{e2e['speedup']:.2f}x (> 1x required): {'PASS' if ok2 else 'FAIL'}"
        )
    emit_json("seed_search", payload)

    if args.write_baseline:
        write_speedup_baseline(Path(args.write_baseline), payload, GATED_CASES)

    if args.check:
        problems = check_regression(payload, Path(args.check))
        if problems:
            for p in problems:
                print(f"REGRESSION: {p}", file=sys.stderr)
            return 1
        print("regression gate: green")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
