"""Named workload suites: reusable scenario batches for the runtime.

A :class:`WorkloadSuite` is a named, lazily-built list of
:class:`~repro.api.SolveRequest`s, each naming its input by a
:class:`~repro.graphs.source.GraphSource`.  Suites are what ``repro batch
--suite <name>`` and the throughput benchmarks consume; registering one is
one :func:`register_suite` call, so downstream experiments can add their
own without touching this module.

Built-ins:

* ``scaling-sweep`` — G(n, p) at geometrically growing ``n`` (the classic
  O(log n) round-bound workload), MIS + matching, two seeds each.
* ``degree-regime`` — near-regular graphs whose degree sweeps across the
  Theorem-1 dispatch boundary (``Delta^2 + 1 <= S``) in ``core/api.py``,
  plus pinned-path pairs on both sides of it.
* ``derived-problems`` — every ``core.derived`` corollary (vertex cover,
  (Delta+1)-coloring, 2-ruling set) over heterogeneous inputs.
* ``throughput-micro`` — twenty small, fixed G(n, p) solves; the standard
  workload for scheduler/cache throughput benchmarking.
* ``large-sweep`` — block-sampled G(n, 8/n) MIS at n = 10^5..10^6; the
  out-of-core workload, intended to run with a graph store configured so
  generation streams to CSR shards and workers mmap them.
* ``cross-model`` — the same inputs solved under every cost model
  registered for MIS (MPC accounting, the literal MPC engine, CONGESTED
  CLIQUE, CONGEST) plus the 2-ruling-set reduction; the workload behind
  the unified cross-model round/communication report.
* ``registry-matrix`` — one job per ``(problem, model)`` entry of the
  :data:`repro.api.REGISTRY` on one shared input; the quickest full sweep
  of the facade surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..api import REGISTRY, SolveRequest
from ..graphs.source import GraphSource

__all__ = [
    "WorkloadSuite",
    "build_suite",
    "get_suite",
    "list_suites",
    "register_suite",
]


@dataclass(frozen=True)
class WorkloadSuite:
    """A named batch scenario; ``build()`` materialises the job list."""

    name: str
    description: str
    builder: Callable[[], list[SolveRequest]]

    def build(self) -> list[SolveRequest]:
        requests = self.builder()
        if not requests:
            raise ValueError(f"suite {self.name!r} built an empty job list")
        return requests


_REGISTRY: dict[str, WorkloadSuite] = {}


def register_suite(suite: WorkloadSuite) -> WorkloadSuite:
    """Add (or replace) a suite in the global registry."""
    _REGISTRY[suite.name] = suite
    return suite


def get_suite(name: str) -> WorkloadSuite:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown suite {name!r}; known suites: {known}") from None


def build_suite(name: str) -> list[SolveRequest]:
    return get_suite(name).build()


def list_suites() -> list[WorkloadSuite]:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


# ---------------------------------------------------------------------- #
# Built-in suites
# ---------------------------------------------------------------------- #


def _scaling_sweep() -> list[SolveRequest]:
    requests = []
    for n in (200, 400, 800, 1600, 3200):
        for seed in (0, 1):
            src = GraphSource.generator("gnp_random_graph", n=n, p=8.0 / n, seed=seed)
            for problem in ("mis", "matching"):
                requests.append(
                    SolveRequest(
                        problem, source=src, tag=f"{problem}-gnp-n{n}-s{seed}"
                    )
                )
    return requests


def _degree_regime() -> list[SolveRequest]:
    # With eps = 0.5 and n = 512 the dispatch rule Delta^2 + 1 <= S flips
    # around Delta ~ 26, so this degree ladder crosses the boundary.
    n = 512
    requests = []
    for d in (4, 8, 16, 32, 64):
        src = GraphSource.generator("random_regular_graph", n=n, d=d, seed=11)
        for problem in ("mis", "matching"):
            requests.append(
                SolveRequest(problem, source=src, tag=f"{problem}-reg-d{d}")
            )
    # Pinned paths on a mid-ladder graph: both algorithms on the same input.
    src = GraphSource.generator("random_regular_graph", n=n, d=8, seed=11)
    for problem in ("mis", "matching"):
        for force in ("lowdeg", "general"):
            requests.append(
                SolveRequest(
                    problem, source=src, force=force,
                    tag=f"{problem}-reg-d8-{force}",
                )
            )
    return requests


def _derived_problems() -> list[SolveRequest]:
    inputs = [
        ("gnp", GraphSource.generator("gnp_random_graph", n=300, p=0.02, seed=5)),
        ("plaw", GraphSource.generator("power_law_graph", n=250, attach=2, seed=5)),
        ("tree", GraphSource.generator("random_tree", n=400, seed=5)),
    ]
    requests = [
        SolveRequest("vc", source=src, tag=f"vc-{label}") for label, src in inputs
    ]
    # Coloring builds a product graph with n * (Delta + 1) nodes; keep the
    # inputs degree-bounded so the suite stays interactive.  2-ruling set
    # squares the graph (degree <= Delta^2), so it reuses these inputs.
    color_inputs = [
        ("reg4", GraphSource.generator("random_regular_graph", n=150, d=4, seed=3)),
        ("grid", GraphSource.generator("grid_graph", rows=12, cols=12)),
        ("cycle", GraphSource.generator("cycle_graph", n=200)),
    ]
    for problem in ("coloring", "ruling2"):
        requests += [
            SolveRequest(problem, source=src, tag=f"{problem}-{label}")
            for label, src in color_inputs
        ]
    return requests


def _cross_model() -> list[SolveRequest]:
    # Inputs stay small: the CONGEST bill scales with BFS depth and the
    # engine run moves real messages, so this suite is about breadth of
    # models, not input size.  The model axis is *enumerated from the
    # solver registry*: every model registered for MIS contributes a row,
    # so a newly registered model joins the suite with no change here.
    inputs = [
        ("gnp", GraphSource.generator("gnp_random_graph", n=220, p=0.03, seed=9)),
        ("reg6", GraphSource.generator("random_regular_graph", n=200, d=6, seed=9)),
        ("grid", GraphSource.generator("grid_graph", rows=14, cols=14)),
    ]
    pairs = [("mis", model) for model in REGISTRY.models("mis")]
    pairs.append(("ruling2", "simulated"))
    return [
        SolveRequest(problem, model, source=src, tag=f"{problem}-{model}-{label}")
        for label, src in inputs
        for problem, model in pairs
    ]


def _registry_matrix() -> list[SolveRequest]:
    # One job per registry entry on one small shared input: the quickest
    # end-to-end exercise of the full problem x model surface (and a live
    # demonstration that registering a solver makes it batch-runnable).
    src = GraphSource.generator("gnp_random_graph", n=120, p=0.05, seed=13)
    return [
        SolveRequest(e.problem, e.model, source=src, tag=f"{e.problem}-{e.model}")
        for e in REGISTRY.entries()
    ]


def _throughput_micro() -> list[SolveRequest]:
    requests = []
    for seed in range(10):
        src = GraphSource.generator("gnp_random_graph", n=240, p=8.0 / 240, seed=seed)
        for problem in ("mis", "matching"):
            requests.append(
                SolveRequest(problem, source=src, tag=f"{problem}-micro-s{seed}")
            )
    return requests


def _large_sweep() -> list[SolveRequest]:
    # The out-of-core regime: inputs sized 10^5..10^6 nodes at constant
    # average degree 8.  These use the streaming-native block-sampled
    # G(n, p) generator, so the edge list is never materialised in the
    # scheduler and workers mmap the CSR shards; a named store
    # (``REPRO_GRAPH_STORE=...`` or ``repro batch --store-dir``) keeps them
    # built across runs.  MIS only: the matching reduction builds a line
    # graph (m nodes), which is its own frontier.
    requests = []
    for n in (100_000, 300_000, 1_000_000):
        src = GraphSource.generator("gnp_block_graph", n=n, p=8.0 / n, seed=1)
        requests.append(SolveRequest("mis", source=src, tag=f"mis-gnp-n{n}"))
    return requests


register_suite(
    WorkloadSuite(
        "scaling-sweep",
        "G(n, p) scaling ladder (n = 200..3200, 2 seeds), MIS + matching",
        _scaling_sweep,
    )
)
register_suite(
    WorkloadSuite(
        "degree-regime",
        "near-regular degree ladder across the Theorem-1 dispatch boundary",
        _degree_regime,
    )
)
register_suite(
    WorkloadSuite(
        "derived-problems",
        "vertex cover + (Delta+1)-coloring over heterogeneous inputs",
        _derived_problems,
    )
)
register_suite(
    WorkloadSuite(
        "throughput-micro",
        "20 small fixed G(n, p) solves for scheduler/cache benchmarking",
        _throughput_micro,
    )
)
register_suite(
    WorkloadSuite(
        "large-sweep",
        "store-backed G(n, 8/n) MIS at n = 1e5..1e6 (use with a graph store)",
        _large_sweep,
    )
)
register_suite(
    WorkloadSuite(
        "cross-model",
        "same inputs under MPC / engine / CLIQUE / CONGEST + 2-ruling set",
        _cross_model,
    )
)
register_suite(
    WorkloadSuite(
        "registry-matrix",
        "one job per (problem, model) solver-registry entry on one input",
        _registry_matrix,
    )
)
