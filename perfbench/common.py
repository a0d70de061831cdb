"""Shared helpers: failure ledger, memory readings, percentiles, line counts."""

from __future__ import annotations

import math
import os
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


class Ledger:
    """Attempted / failed operation counts with the error type of each failure.

    Every failure counts once, whatever its kind: a raised exception, an
    unverified certificate, a non-200 reply, an ``ok: false`` reply, a
    timeout, or a result that drifted between repeats.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: Counter[str] = Counter()
        self.examples: list[dict] = []

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, what: str, error_type: str, detail: str = "") -> None:
        self.failed += 1
        self.errors[error_type] += 1
        if len(self.examples) < 20:
            self.examples.append({"op": what, "type": error_type, "detail": detail[:300]})

    def ok_frac(self) -> float:
        return 1.0 - self.failed / max(self.attempted, 1)

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_frac": self.failed / max(self.attempted, 1),
            "errors": dict(self.errors),
            "examples": self.examples,
        }


def _status_kb(pid: int | str, field: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def reset_peak_rss() -> None:
    """Reset this process's VmHWM to its current RSS (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident memory (VmHWM) of one process, in MB."""
    return _status_kb(pid, "VmHWM") / 1024.0


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (children, grandchildren, ...)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def tree_peak_rss_mb(pid: int) -> dict[int, float]:
    """VmHWM in MB of ``pid`` and each of its live descendants."""
    peaks = {}
    for p in [pid, *descendants(pid)]:
        try:
            peaks[p] = peak_rss_mb(p)
        except OSError:  # exited between listing and reading
            pass
    return peaks


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]) of a non-empty list.

    Always an observed value: on a short list of unlike solves, interpolating
    between the two middle samples would land in the gap between entries.
    """
    xs = sorted(values)
    return xs[max(math.ceil(q / 100.0 * len(xs)), 1) - 1]


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def src_line_counts() -> dict:
    """Line count of every module under ``src/`` (tracked next to timings)."""
    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            modules[str(path.relative_to(SRC))] = sum(1 for _ in fh)
    return {"total": sum(modules.values()), "modules": modules}


def clean_env() -> dict:
    """This process's environment without ``REPRO_*`` knobs.

    Tracing (``REPRO_TRACE``) and backend switches stay at their defaults in
    every run, so the benchmark's own wrappers are the only difference
    between a traced and an untraced run.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env
