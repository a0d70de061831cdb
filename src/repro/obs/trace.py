"""Nested-span tracer with a no-op disabled path (``REPRO_TRACE``).

Design constraints, in order:

1. **The disabled path must be free.**  Every instrumentation site in the
   solvers and simulators guards on the module-global :data:`_TRACING`
   boolean — one attribute load + branch, no function call, no ContextVar
   read — so with ``REPRO_TRACE`` unset the hot loops (ledger charges,
   engine rounds, seed-scan chunks) pay a few nanoseconds per site.  The
   parity contract (disabled tracing leaves solver outputs and ledger
   totals bit-identical) is trivially true because disabled sites execute
   nothing.
2. **Nesting follows the call tree, concurrency-safely.**  The active span
   and the active buffer are :class:`~contextvars.ContextVar`s, which
   every thread and asyncio task sees separately, so concurrent
   ``solve()`` calls in different threads or tasks build disjoint span
   trees.
3. **Spans are plain dicts at rest.**  A finished span is appended to its
   buffer as a JSON-safe flat record (``id`` / ``parent`` / ``name`` /
   ``ts`` / ``dur`` / ``attrs`` / ``events``), which is exactly the JSONL
   line format and the input to the Perfetto exporter — no second
   serialization model.

Enabling: ``REPRO_TRACE=1`` (or ``on`` / ``true`` / ``yes``) turns tracing
on in-process; any other non-empty value is read as a *path* and finished
root buffers are appended there as JSONL.  :func:`trace_capture` enables
tracing for a scope regardless of the environment and hands the caller the
buffer — the runtime worker uses it to ship per-job traces back to the
scheduler.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar

__all__ = [
    "Span",
    "TraceBuffer",
    "clock",
    "current_span",
    "env_trace_destination",
    "is_tracing",
    "ledger_event",
    "record_span",
    "refresh_env",
    "span",
    "trace_capture",
]

#: Values of ``REPRO_TRACE`` meaning "enabled, no file sink".
_FLAG_VALUES = ("1", "on", "true", "yes")
#: Values meaning "disabled".
_OFF_VALUES = ("", "0", "off", "false", "no", "none")


def _parse_env() -> tuple[bool, str | None]:
    """``(enabled, jsonl_destination_or_None)`` from ``REPRO_TRACE``."""
    raw = os.environ.get("REPRO_TRACE", "").strip()
    if raw.lower() in _OFF_VALUES:
        return False, None
    if raw.lower() in _FLAG_VALUES:
        return True, None
    return True, raw


_ENV_ENABLED, _ENV_DEST = _parse_env()
_capture_count = 0

#: THE fast-path gate.  Instrumentation sites check ``trace._TRACING``
#: directly; everything else in this module is behind it.
_TRACING = _ENV_ENABLED

clock = time.perf_counter


def _recompute() -> None:
    global _TRACING
    _TRACING = _ENV_ENABLED or _capture_count > 0


def refresh_env() -> None:
    """Re-read ``REPRO_TRACE`` (tests and the CLI mutate the environment)."""
    global _ENV_ENABLED, _ENV_DEST
    _ENV_ENABLED, _ENV_DEST = _parse_env()
    _recompute()


def is_tracing() -> bool:
    """True when any instrumentation site would record."""
    return _TRACING


def env_trace_destination() -> str | None:
    """The JSONL path ``REPRO_TRACE`` names, or ``None``."""
    return _ENV_DEST


class Span:
    """One live span; finished spans are stored as plain dicts."""

    __slots__ = ("sid", "parent_id", "name", "ts", "attrs", "events")

    def __init__(
        self, sid: int, parent_id: int, name: str, ts: float, attrs: dict
    ) -> None:
        self.sid = sid
        self.parent_id = parent_id
        self.name = name
        self.ts = ts
        self.attrs = attrs
        self.events: list[dict] = []

    def set(self, **attrs) -> None:
        """Attach / overwrite attributes (JSON scalars only, by convention)."""
        self.attrs.update(attrs)

    def event(self, name: str, **fields) -> None:
        self.events.append({"name": name, "t": clock(), **fields})


class TraceBuffer:
    """Finished spans of one trace, in completion order (children first)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.t_origin = clock()
        self._next_id = 1

    def start(self, name: str, parent: Span | None, attrs: dict) -> Span:
        sid = self._next_id
        self._next_id += 1
        return Span(
            sid, parent.sid if parent is not None else 0, name, clock(), attrs
        )

    def finish(self, s: Span) -> None:
        for ev in s.events:
            ev["t"] = round(ev["t"] - self.t_origin, 9)
        self.spans.append(
            {
                "id": s.sid,
                "parent": s.parent_id,
                "name": s.name,
                "ts": round(s.ts - self.t_origin, 9),
                "dur": round(clock() - s.ts, 9),
                "attrs": s.attrs,
                "events": s.events,
            }
        )

    def jsonl_lines(self) -> list[str]:
        return [json.dumps(rec, sort_keys=True) for rec in self.spans]

    def write_jsonl(self, path: str, append: bool = True) -> None:
        mode = "a" if append else "w"
        with open(path, mode) as fh:
            for line in self.jsonl_lines():
                fh.write(line + "\n")


_BUFFER: ContextVar[TraceBuffer | None] = ContextVar(
    "repro_obs_trace_buffer", default=None
)
_SPAN: ContextVar[Span | None] = ContextVar("repro_obs_active_span", default=None)


def current_span() -> Span | None:
    """The innermost open span in this context (``None`` when disabled)."""
    if not _TRACING:
        return None
    return _SPAN.get()


@contextmanager
def span(name: str, **attrs):
    """Open a nested span; yields the :class:`Span` or ``None`` if disabled.

    Exception-safe by construction: the span is finished and the parent
    restored in a ``finally`` block, and an escaping exception is recorded
    on the span as ``error=<type name>`` before it propagates.
    """
    if not _TRACING:
        yield None
        return
    buf = _BUFFER.get()
    if buf is None:
        yield None
        return
    s = buf.start(name, _SPAN.get(), attrs)
    token = _SPAN.set(s)
    try:
        yield s
    except BaseException as exc:
        s.attrs["error"] = type(exc).__name__
        raise
    finally:
        _SPAN.reset(token)
        buf.finish(s)


def record_span(name: str, t_start: float, attrs: dict) -> None:
    """Append an already-elapsed span (``t_start`` from :func:`clock`).

    The zero-contextmanager form hot loops use: the caller samples
    ``clock()`` behind its own ``_TRACING`` check, runs the work, and
    records the completed span afterwards — one function call on the
    enabled path, one branch on the disabled path, and no generator
    machinery either way.
    """
    if not _TRACING:
        return
    buf = _BUFFER.get()
    if buf is None:
        return
    parent = _SPAN.get()
    s = Span(buf._next_id, parent.sid if parent is not None else 0, name, t_start, attrs)
    buf._next_id += 1
    buf.finish(s)


def ledger_event(category: str, rounds: int, words: int) -> None:
    """A :class:`~repro.models.ledger.RoundLedger` charge, as a span event.

    Called (behind the ``_TRACING`` guard) by ``RoundLedger.charge``, which
    MPCEngine, MPCContext, CongestedCliqueContext and CongestContext all
    inherit, so the per-charge stream the ledger collapses into totals
    lands on the active span too.  ``RoundLedger.fold`` adds a sub-run's
    bill without calling it: the sub-run's own charges are already here.
    """
    s = _SPAN.get()
    if s is not None:
        s.events.append(
            {
                "name": "charge",
                "t": clock(),
                "category": category,
                "rounds": rounds,
                "words": words,
            }
        )


@contextmanager
def trace_capture():
    """Force tracing on for this scope and yield the :class:`TraceBuffer`.

    Independent of ``REPRO_TRACE`` — this is how tests and the runtime
    worker collect a trace programmatically.  Captures nest: an inner
    capture shadows the outer buffer for its scope (each sees only its own
    spans).
    """
    global _capture_count
    buf = TraceBuffer()
    buf_token = _BUFFER.set(buf)
    span_token = _SPAN.set(None)
    _capture_count += 1
    _recompute()
    try:
        yield buf
    finally:
        _capture_count -= 1
        _recompute()
        _SPAN.reset(span_token)
        _BUFFER.reset(buf_token)


@contextmanager
def ensure_buffer():
    """Yield the active buffer, creating (and flushing) one if none exists.

    :func:`repro.api.solve` wraps traced solves in this: nested solves and
    worker captures reuse the ambient buffer, while a bare env-enabled
    solve gets a fresh root buffer whose spans are appended to the
    ``REPRO_TRACE`` JSONL destination (when one is named) on close.
    """
    existing = _BUFFER.get()
    if existing is not None:
        yield existing
        return
    buf = TraceBuffer()
    token = _BUFFER.set(buf)
    try:
        yield buf
    finally:
        _BUFFER.reset(token)
        if _ENV_DEST and buf.spans:
            buf.write_jsonl(_ENV_DEST, append=True)
