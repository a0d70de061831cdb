"""Worker-side job execution (runs inside pool processes).

:func:`run_job` is the single entry point the scheduler submits to its
``ProcessPoolExecutor``.  It is deliberately total: *every* failure mode —
bad parameters, generator errors, solver exceptions, per-job timeouts — is
caught and returned as a structured payload, so a failing job never takes
the pool down.  Timeouts use ``SIGALRM`` (POSIX), which interrupts the solve
inside the worker instead of leaving an orphaned computation behind.

Dispatch goes through the :data:`repro.api.REGISTRY` facade: the job is
the :class:`~repro.api.SolveRequest` itself, one :func:`repro.api.solve`
call produces the unified :class:`~repro.api.SolveResult`, and
:func:`payload_from_solve_result` flattens it into the worker payload the
scheduler and cache consume.  There is no per-problem branching here —
registering a new solver makes it batch-runnable with no worker change.

The input graph arrives as a ``graph_store`` root plus fingerprint: the
worker mmaps the store's CSR shards read-only (zero-copy, page-cache
bounded, no O(m log m) adjacency build per job).  Any open failure falls
back to regenerating from the request's
:class:`~repro.graphs.source.GraphSource`, with a structured
``store_fallback`` warning in the result meta — never a job failure.
"""

from __future__ import annotations

import os
import signal
import time
import traceback

from ..api import SolveRequest, SolveResult, solve
from ..graphs.graph import Graph
from ..graphs.store import open_stored_graph
from ..obs import trace as _obs

__all__ = [
    "load_job_graph",
    "payload_from_solve_result",
    "run_job",
    "warm_worker",
]


def warm_worker() -> int:
    """Pool warm-up target: importing this module is the work.

    Submitted once per worker by :meth:`Scheduler.warm_up` so a
    persistent pool forks (and pays the interpreter + numpy import cost)
    at service startup — from a still thread-light parent — instead of on
    the first request.  Returns the worker pid for log-friendliness.
    """
    return os.getpid()


class JobTimeout(Exception):
    """Raised inside the worker when the per-job wall-clock budget expires."""


def _raise_timeout(signum, frame):  # pragma: no cover - signal plumbing
    raise JobTimeout()


def payload_from_solve_result(result: SolveResult) -> dict:
    """Flatten a :class:`SolveResult` into the worker payload fields.

    The envelope's ``(meta, arrays)`` split rides along as
    ``result_meta`` / ``arrays``, so a cache hit can rebuild the full
    :class:`SolveResult` (see :meth:`repro.runtime.cache.CacheEntry.load_result`).
    """
    meta, arrays = result.to_payload()
    out = {
        "verified": result.verified,
        "solution_size": result.solution_size,
        "path": result.path,
        "iterations": result.iterations,
        "rounds": result.rounds,
        "max_machine_words": result.max_machine_words,
        "space_limit": result.space_limit,
        "result_meta": meta,
        "arrays": arrays,
    }
    if result.trace is not None:
        # The spans themselves ride in result_meta (and hence land in the
        # cache next to the arrays); the JobResult carries the head count.
        out["meta"] = {"trace_spans": len(result.trace)}
    return out


def load_job_graph(
    request: SolveRequest, payload: dict
) -> tuple[Graph, dict | None]:
    """Open a job's input from the graph store the payload names.

    Returns ``(graph, fallback)`` where ``fallback`` is a structured
    ``store_fallback`` record when the open failed and the graph was
    regenerated from the request's source instead — the degraded path is a
    warning in the result meta, not a job failure.  The parent counts it
    (``store.fallbacks``) when the result comes back.
    """
    store_root, fingerprint = payload["graph_store"], payload["fingerprint"]
    try:
        return open_stored_graph(store_root, fingerprint), None
    except JobTimeout:
        raise  # the job's budget ran out mid-open: a timeout, not a bad shard
    except Exception as exc:  # noqa: BLE001 - corrupt/missing shard
        fallback = {
            "fingerprint": fingerprint,
            "store_root": str(store_root),
            "error_type": type(exc).__name__,
            "error_message": str(exc),
        }
        return request.source.resolve(), fallback


def run_job(payload: dict) -> dict:
    """Pool entry point: execute one job described by ``payload``.

    ``payload`` keys: ``spec`` (a :meth:`SolveRequest.to_dict`),
    ``graph_store`` (the store root) and ``fingerprint`` (the graph's key
    in it), ``timeout`` (seconds or None) and ``trace``.  Always returns a
    dict with a ``status`` of ``"ok"``, ``"error"`` or ``"timeout"`` —
    never raises.
    """
    t0 = time.perf_counter()
    out: dict = {"status": "ok", "worker_pid": os.getpid(), "fingerprint": ""}
    timeout = payload.get("timeout")
    use_alarm = bool(timeout) and hasattr(signal, "SIGALRM")
    old_handler = None
    if use_alarm:
        old_handler = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, float(timeout))
    try:
        request = SolveRequest.from_dict(payload["spec"])
        graph, fallback = load_job_graph(request, payload)
        out["fingerprint"] = payload["fingerprint"]
        out["graph_n"], out["graph_m"] = graph.n, graph.m
        if payload.get("trace"):
            # Capture regardless of the worker's environment; solve()
            # attaches the span subtree to the result, which
            # payload_from_solve_result ships back through result_meta.
            with _obs.trace_capture():
                result = solve(request, graph=graph)
        else:
            result = solve(request, graph=graph)
        out.update(payload_from_solve_result(result))
        if fallback is not None:
            # Merge, don't clobber: the solve may have set trace meta.
            out["meta"] = {**out.get("meta", {}), "store_fallback": fallback}
    except JobTimeout:
        out["status"] = "timeout"
        out["error_type"] = "JobTimeout"
        out["error_message"] = f"job exceeded {timeout}s wall-clock budget"
        out["error_traceback"] = ""
    except Exception as exc:  # noqa: BLE001 - total by design
        out["status"] = "error"
        out["error_type"] = type(exc).__name__
        out["error_message"] = str(exc)
        out["error_traceback"] = traceback.format_exc()
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)
    out["wall_time"] = time.perf_counter() - t0
    return out
