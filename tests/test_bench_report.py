"""The bench aggregation step: ``summarize_results`` + ``scripts/bench_report.py``.

The summary merge is the one bench helper CI depends on for its uploaded
artifact, so it gets a real test: timing columns collapse to the winning
backend, timing-less cases and prior summaries are skipped, and a corrupt
artifact is reported instead of aborting the merge.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))

from _common import summarize_results  # noqa: E402


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc))


def _results_dir(tmp_path: Path) -> Path:
    d = tmp_path / "results"
    d.mkdir()
    _write(
        d / "BENCH_alpha.json",
        {
            "bench": "alpha",
            "mode": "smoke",
            "cases": {
                "scan": {
                    "csr_s": 0.4,
                    "jit_s": 0.1,
                    "speedup": 4.0,
                    "identical": True,
                },
                "no_timings": {"rows": 12},
            },
        },
    )
    _write(
        d / "BENCH_summary.json",
        {"bench": "summary", "cases": {"ghost": {"x_s": 1.0}}},
    )
    (d / "BENCH_broken.json").write_text("{not json")
    return d


def test_summarize_results_merges_and_skips(tmp_path):
    summary = summarize_results(_results_dir(tmp_path))
    assert summary["bench_count"] == 1
    assert summary["unreadable"] == ["BENCH_broken.json"]
    alpha = summary["benches"]["alpha"]
    assert alpha["mode"] == "smoke"
    assert list(alpha["cases"]) == ["scan"]  # timing-less case dropped
    scan = alpha["cases"]["scan"]
    assert scan["best_backend"] == "jit"
    assert scan["best_s"] == 0.1
    assert scan["timings"] == {"csr": 0.4, "jit": 0.1}
    assert scan["speedup"] == 4.0 and scan["identical"] is True


def test_bench_report_cli_emits_summary_artifact(tmp_path):
    results = _results_dir(tmp_path)
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "scripts" / "bench_report.py"),
            "--results-dir",
            str(results),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "best=jit" in proc.stdout
    assert "BENCH_broken.json" in proc.stderr
    # The artifact lands in the directory it summarizes, not in the repo.
    doc = json.loads((results / "BENCH_summary.json").read_text())
    assert doc["bench"] == "summary"
    assert doc["benches"]["alpha"]["cases"]["scan"]["best_backend"] == "jit"


def test_bench_report_cli_fails_on_empty_sweep(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "scripts" / "bench_report.py"),
            "--results-dir",
            str(empty),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "no BENCH_*.json" in proc.stderr
