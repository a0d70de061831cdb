"""Shared helpers for the benchmark harness.

Every bench prints its paper-claim-vs-measured table and also writes it to
``benchmarks/results/<name>.txt`` so the artifacts survive pytest's output
capture.  Machine-readable benches additionally write
``benchmarks/results/BENCH_<name>.json`` via :func:`emit_json` — the
standard artifact format downstream tooling (dashboards, regression
trackers) consumes.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


# --------------------------------------------------------------------- #
# Two-path comparison harness (speedup gates: bench_seed_search; best_timing
# is also used by bench_obs_overhead)
# --------------------------------------------------------------------- #


def best_timing(fn, repeats: int) -> tuple[float, object]:
    """Best-of-``repeats`` wall time plus the last return value."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def speedup_case(name, base_fn, fast_fn, same_fn, repeats, meta, labels):
    """One named backend-vs-backend case: timings, speedup, parity flag.

    ``labels`` are the two backend names; the result dict carries
    ``<label>_s`` per side plus ``speedup`` (base / fast) and
    ``identical`` from ``same_fn(base_out, fast_out)``.
    """
    t_base, a = best_timing(base_fn, repeats)
    t_fast, b = best_timing(fast_fn, repeats)
    return name, {
        f"{labels[0]}_s": t_base,
        f"{labels[1]}_s": t_fast,
        "speedup": t_base / t_fast if t_fast > 0 else float("inf"),
        "identical": bool(same_fn(a, b)),
        **meta,
    }


def check_speedup_regression(
    payload: dict,
    baseline_path: Path,
    gated_cases: tuple[str, ...],
    factor: float,
    diverged_msg: str,
) -> list[str]:
    """Messages describing gate failures (empty = green).

    Parity is checked for every case; speedup ratios are gated only for
    ``gated_cases`` (the rest are too noisy on shared CI runners).
    """
    problems = []
    for name, case in payload["cases"].items():
        if not case["identical"]:
            problems.append(f"{name}: {diverged_msg}")
    try:
        baseline = json.loads(baseline_path.read_text())
    except OSError as exc:
        problems.append(f"baseline {baseline_path} unreadable: {exc}")
        return problems
    except json.JSONDecodeError as exc:
        problems.append(f"baseline {baseline_path} is not valid JSON: {exc}")
        return problems
    base_mode = baseline.get("mode")
    if base_mode and base_mode != payload["mode"]:
        problems.append(
            f"baseline was recorded in {base_mode!r} mode but this run is "
            f"{payload['mode']!r}; refresh with --write-baseline"
        )
        return problems
    for name, base_case in baseline["cases"].items():
        if name not in gated_cases:
            continue
        cur = payload["cases"].get(name)
        if cur is None:
            problems.append(f"{name}: present in baseline but not run")
            continue
        floor = base_case["speedup"] / factor
        if cur["speedup"] < floor:
            problems.append(
                f"{name}: speedup {cur['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {base_case['speedup']:.2f}x / "
                f"{factor:g})"
            )
    return problems


def write_speedup_baseline(
    path: Path, payload: dict, gated_cases: tuple[str, ...]
) -> None:
    """Persist the gated cases' speedups as the new checked-in baseline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    slim = {
        "mode": payload["mode"],
        "cases": {
            k: {"speedup": round(v["speedup"], 3)}
            for k, v in payload["cases"].items()
            if k in gated_cases
        },
    }
    path.write_text(json.dumps(slim, indent=2, sort_keys=True) + "\n")
    print(f"[baseline] wrote {path}")


def summarize_results(results_dir: Path = RESULTS_DIR) -> dict:
    """Merge every ``BENCH_*.json`` artifact into one summary payload.

    Per bench, per case: the timing columns (keys ending ``_s``) collapse
    to the winning backend and its wall time, alongside the case's
    ``speedup`` / ``identical`` flags when present.  Cases without timing
    columns (pure acceptance/accounting benches) are skipped; benches
    whose JSON cannot be parsed are listed under ``unreadable`` instead of
    aborting the merge.  ``scripts/bench_report.py`` wraps this as the CI
    aggregation step that emits ``BENCH_summary.json``.
    """
    benches: dict[str, dict] = {}
    unreadable: list[str] = []
    for path in sorted(Path(results_dir).glob("BENCH_*.json")):
        if path.name == "BENCH_summary.json":
            continue  # never merge a previous summary into itself
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            unreadable.append(path.name)
            continue
        cases: dict[str, dict] = {}
        for name, case in (doc.get("cases") or {}).items():
            if not isinstance(case, dict):
                continue
            timings = {
                k[:-2]: v
                for k, v in case.items()
                if k.endswith("_s") and isinstance(v, (int, float))
            }
            if not timings:
                continue
            best = min(timings, key=timings.get)
            rec: dict = {
                "best_backend": best,
                "best_s": timings[best],
                "timings": timings,
            }
            for extra in ("speedup", "identical"):
                if extra in case:
                    rec[extra] = case[extra]
            cases[name] = rec
        benches[str(doc.get("bench", path.stem))] = {
            "source": path.name,
            "mode": doc.get("mode"),
            "cases": cases,
        }
    summary = {"benches": benches, "bench_count": len(benches)}
    if unreadable:
        summary["unreadable"] = unreadable
    return summary


def emit(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


def emit_json(name: str, payload: dict, results_dir: Path = RESULTS_DIR) -> Path:
    """Write the standard ``BENCH_<name>.json`` artifact into ``results_dir``
    and return its path."""
    results_dir.mkdir(exist_ok=True)
    doc = {
        "bench": name,
        "created_unix": time.time(),
        "machine": platform.node() or "unknown",
        "python": platform.python_version(),
        **payload,
    }
    path = results_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"[bench json] {path}")
    return path
