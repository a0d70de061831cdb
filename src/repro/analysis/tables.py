"""Plain-text table / series rendering for the benchmark harness.

The benchmark scripts print the paper-claim-vs-measured tables through these
helpers so every experiment's output has the same shape: a title line, an
aligned header, aligned rows, and (optionally) a footnote with the verdict.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["render_series", "render_table"]


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence],
    footnote: str | None = None,
) -> str:
    """Aligned plain-text table; returns the string (callers print it)."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    lines = [f"== {title} =="]
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    if footnote:
        lines.append(f"-- {footnote}")
    return "\n".join(lines)


def render_series(title: str, xs: Sequence, ys: Sequence, x_name: str, y_name: str) -> str:
    """Figure-style output: one (x, y) pair per line plus a crude sparkline."""
    lines = [f"== {title} =="]
    ys_f = [float(y) for y in ys]
    lo, hi = (min(ys_f), max(ys_f)) if ys_f else (0.0, 1.0)
    span = (hi - lo) or 1.0
    for x, y in zip(xs, ys_f):
        bar = "#" * (1 + int(29 * (y - lo) / span))
        lines.append(f"{x_name}={_fmt(x):>10}  {y_name}={_fmt(y):>10}  {bar}")
    return "\n".join(lines)
