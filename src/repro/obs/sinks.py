"""Trace persistence and analysis: JSONL I/O, Perfetto export, summaries.

A *trace* at rest is a list of flat span dicts (the
:class:`~repro.obs.trace.TraceBuffer` record format), stored one JSON
object per line.  Everything here is a pure function over that list so the
CLI, the tests, and CI steps share one implementation.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "chrome_trace",
    "diff_summaries",
    "read_jsonl",
    "summarize",
    "top_spans",
    "write_chrome_trace",
    "write_jsonl",
]


def read_jsonl(path: str | Path) -> list[dict]:
    """Load spans from a JSONL trace file (blank / torn lines skipped)."""
    spans: list[dict] = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail write
            if isinstance(rec, dict) and "name" in rec:
                spans.append(rec)
    return spans


def write_jsonl(spans: list[dict], path: str | Path) -> None:
    with Path(path).open("w") as fh:
        for rec in spans:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def chrome_trace(spans: list[dict]) -> dict:
    """Spans as a Chrome-trace / Perfetto ``traceEvents`` document.

    Each span becomes a complete event (``"ph": "X"``) with microsecond
    timestamps; span attributes ride in ``args`` and ledger charge events
    become instant events (``"ph": "i"``) on the same track.  Spans are
    laid out on one process with the track (tid) derived from tree depth,
    so nesting reads top-down in the Perfetto UI even without flow events.
    """
    depth: dict[int, int] = {0: -1}  # sentinel "parent of roots": roots at 0
    events: list[dict] = []
    # Parents finish after children in buffer order, so resolve depths via
    # the parent pointers in a second pass over the id->span map.
    by_id = {rec.get("id", 0): rec for rec in spans}

    def _depth(sid: int) -> int:
        d = depth.get(sid)
        if d is not None:
            return d
        rec = by_id.get(sid)
        d = 0 if rec is None else 1 + _depth(rec.get("parent", 0))
        depth[sid] = d
        return d

    for rec in spans:
        tid = _depth(rec.get("id", 0))
        events.append(
            {
                "name": rec["name"],
                "ph": "X",
                "ts": round(rec.get("ts", 0.0) * 1e6, 3),
                "dur": round(rec.get("dur", 0.0) * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "cat": rec["name"].split(".", 1)[0],
                "args": dict(rec.get("attrs", {})),
            }
        )
        for ev in rec.get("events", []):
            args = {k: v for k, v in ev.items() if k not in ("name", "t")}
            events.append(
                {
                    "name": ev.get("name", "event"),
                    "ph": "i",
                    "s": "t",
                    "ts": round(ev.get("t", 0.0) * 1e6, 3),
                    "pid": 1,
                    "tid": tid,
                    "cat": rec["name"].split(".", 1)[0],
                    "args": args,
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }


def write_chrome_trace(spans: list[dict], path: str | Path) -> None:
    Path(path).write_text(json.dumps(chrome_trace(spans)))


def summarize(spans: list[dict]) -> dict:
    """Aggregate a trace: per-name counts/durations and charge totals."""
    by_name: dict[str, dict] = {}
    charges: dict[str, dict[str, float]] = {}
    n_events = 0
    for rec in spans:
        row = by_name.setdefault(
            rec["name"], {"count": 0, "total_dur": 0.0, "max_dur": 0.0}
        )
        dur = float(rec.get("dur", 0.0))
        row["count"] += 1
        row["total_dur"] += dur
        if dur > row["max_dur"]:
            row["max_dur"] = dur
        for ev in rec.get("events", []):
            n_events += 1
            if ev.get("name") == "charge":
                cat = charges.setdefault(
                    str(ev.get("category", "?")), {"rounds": 0, "words": 0}
                )
                cat["rounds"] += ev.get("rounds", 0)
                cat["words"] += ev.get("words", 0)
    for row in by_name.values():
        row["total_dur"] = round(row["total_dur"], 9)
        row["max_dur"] = round(row["max_dur"], 9)
    wall = max((rec.get("ts", 0.0) + rec.get("dur", 0.0) for rec in spans), default=0.0)
    return {
        "spans": len(spans),
        "events": n_events,
        "wall_span": round(wall, 9),
        "by_name": dict(sorted(by_name.items())),
        "charges": dict(sorted(charges.items())),
    }


def top_spans(spans: list[dict], k: int = 10) -> list[dict]:
    """The ``k`` longest individual spans, longest first."""
    ranked = sorted(spans, key=lambda rec: rec.get("dur", 0.0), reverse=True)
    return [
        {
            "name": rec["name"],
            "dur": rec.get("dur", 0.0),
            "ts": rec.get("ts", 0.0),
            "attrs": rec.get("attrs", {}),
        }
        for rec in ranked[: max(k, 0)]
    ]


def diff_summaries(a: dict, b: dict) -> dict:
    """Compare two :func:`summarize` outputs (b relative to a).

    Reports per-name count/duration deltas plus per-category charge deltas
    — the shape that answers "did this change add rounds or words?".
    """
    names = sorted(set(a.get("by_name", {})) | set(b.get("by_name", {})))
    by_name = {}
    for name in names:
        ra = a.get("by_name", {}).get(name, {"count": 0, "total_dur": 0.0})
        rb = b.get("by_name", {}).get(name, {"count": 0, "total_dur": 0.0})
        by_name[name] = {
            "count_a": ra["count"],
            "count_b": rb["count"],
            "count_delta": rb["count"] - ra["count"],
            "dur_a": ra["total_dur"],
            "dur_b": rb["total_dur"],
            "dur_delta": round(rb["total_dur"] - ra["total_dur"], 9),
        }
    cats = sorted(set(a.get("charges", {})) | set(b.get("charges", {})))
    charges = {}
    for cat in cats:
        ca = a.get("charges", {}).get(cat, {"rounds": 0, "words": 0})
        cb = b.get("charges", {}).get(cat, {"rounds": 0, "words": 0})
        charges[cat] = {
            "rounds_delta": cb["rounds"] - ca["rounds"],
            "words_delta": cb["words"] - ca["words"],
        }
    return {
        "spans_a": a.get("spans", 0),
        "spans_b": b.get("spans", 0),
        "by_name": by_name,
        "charges": charges,
    }
