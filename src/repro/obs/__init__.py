"""``repro.obs`` — structured tracing and metrics, the layer every other
package imports.

The paper's claims are *resource bounds* — ``O(1/gamma^2)`` low-space MPC
rounds, ``O(D + seed_bits)`` CONGEST seed fixes — so every layer reports
where its rounds and time went.  Three zero-dependency pieces, none of
which imports another ``repro`` package:

* :mod:`repro.obs.trace` — nested spans (solve → stage → phase →
  seed-scan → engine round) with attributes and ledger charge events,
  gated by ``REPRO_TRACE`` so the disabled path is a flag check;
* :mod:`repro.obs.metrics` — process-global counters / gauges /
  histograms (seed-scan chunks, early-exit depth, cache hits, worker
  retries) exported as one flat dict;
* :mod:`repro.obs.sinks` — JSONL traces, the Chrome-trace / Perfetto
  exporter, summaries and diffs.

The tools that read traces back sit on top of the solvers, in
:mod:`repro.analysis`: the symbolic cost ledger
(:mod:`repro.analysis.symbolic`), the conformance sweeps that check
measured series against it (:mod:`repro.analysis.conformance`) and the
``repro trace`` CLI (:mod:`repro.analysis.cli`).
"""

from __future__ import annotations

from .metrics import METRICS, MetricsRegistry
from .trace import (
    Span,
    TraceBuffer,
    current_span,
    env_trace_destination,
    is_tracing,
    record_span,
    refresh_env,
    span,
    trace_capture,
)

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "Span",
    "TraceBuffer",
    "current_span",
    "env_trace_destination",
    "is_tracing",
    "record_span",
    "refresh_env",
    "span",
    "trace_capture",
]
