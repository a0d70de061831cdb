"""``repro.api`` — the one problem x model solver facade (Theorem 1's API).

One call solves any registered problem under any registered cost model and
returns the unified envelope::

    from repro.api import SolveRequest, solve
    from repro.graphs import gnp_random_graph

    g = gnp_random_graph(300, 0.03, seed=0)
    res = solve(SolveRequest(problem="mis", model="cclique", graph=g))
    res.solution, res.rounds, res.words_moved, res.snapshot

Pieces:

* :class:`SolveRequest` / :class:`SolveResult` — the typed envelope
  (:mod:`repro.api.envelope`); the request is the one description of a
  solve (in process, in a batch, on the wire and in the cache key), its
  :meth:`~SolveRequest.make_params` is the only settings record a solve
  reads, and no ``REPRO_*`` variable changes an answer;
* :data:`REGISTRY` — the ``(problem, model)`` solver registry with
  capability metadata (:mod:`repro.api.registry`); built-in entries are
  registered by :mod:`repro.api.solvers` at import time.

The historical entry points (``repro.core.api.maximal_independent_set``,
``repro.cclique.mis_cc.cc_mis``, ``repro.congest.mis_congest.congest_mis``,
``repro.mpc.distributed_luby.distributed_luby_mis``, ...) remain available
and bit-identical; they are the implementation layer this facade fronts.
New scenarios should register a solver here instead of adding entry points.
"""

from __future__ import annotations

import time
from dataclasses import replace

from ..core.params import Params
from ..graphs.graph import Graph
from ..obs import METRICS
from ..obs import trace as _trace
from .envelope import SolveRequest, SolveResult
from .registry import (
    REGISTRY,
    SolverCapabilities,
    SolverEntry,
    SolverRegistry,
    register_solver,
)
from . import solvers as _solvers  # noqa: F401  (registers built-in entries)

__all__ = [
    "REGISTRY",
    "SolveRequest",
    "SolveResult",
    "SolverCapabilities",
    "SolverEntry",
    "SolverRegistry",
    "register_solver",
    "solve",
]


def solve(request: SolveRequest, *, graph: Graph | None = None) -> SolveResult:
    """Solve ``request`` through the registry; returns the unified envelope.

    The input graph is the ``graph`` keyword, else ``request.graph``, else
    ``request.source`` resolved here; the settings are
    :meth:`SolveRequest.make_params`.
    """
    g = graph if graph is not None else request.graph
    if g is None:
        if request.source is None:
            raise ValueError(
                "SolveRequest needs a graph (request.graph, request.source "
                "or graph=)"
            )
        g = request.source.resolve()
    entry = REGISTRY.get(request.problem, request.model)
    params = request.make_params()
    if not _trace._TRACING:
        # Parity contract: with tracing off this is byte-for-byte the
        # pre-observability solve path.
        t0 = time.perf_counter()
        result = entry.fn(g, request, params)
        return replace(result, wall_time=time.perf_counter() - t0)
    return _solve_traced(entry, g, request, params)


def _solve_traced(entry, g: Graph, request: SolveRequest, params: Params):
    """Traced solve: root ``solve`` span + trace/metrics on the envelope."""
    with _trace.ensure_buffer() as buf:
        mark = len(buf.spans)
        before = METRICS.counters_snapshot()
        t0 = time.perf_counter()
        with _trace.span(
            "solve",
            problem=request.problem,
            model=request.model,
            n=g.n,
            m=g.m,
            eps=request.eps,
        ) as sp:
            result = entry.fn(g, request, params)
            if sp is not None:
                sp.set(
                    rounds=result.rounds,
                    words_moved=result.words_moved,
                    verified=result.verified,
                )
        wall = time.perf_counter() - t0
        return replace(
            result,
            wall_time=wall,
            trace=buf.spans[mark:],
            metrics=METRICS.delta(before, METRICS.counters_snapshot()),
        )
