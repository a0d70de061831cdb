"""repro -- Deterministic graph sparsification for low-space MPC.

Full reproduction of Czumaj, Davies, Parter, *"Graph Sparsification for
Derandomizing Massively Parallel Computation with Low Space"* (SPAA 2020).

Quickstart::

    from repro import Graph, gnp_random_graph, maximal_independent_set

    g = gnp_random_graph(512, 0.05, seed=1)
    result = maximal_independent_set(g, eps=0.5)
    print(result.independent_set, result.rounds)

One API — any problem under any cost model through the solver registry::

    from repro import SolveRequest, solve

    res = solve(SolveRequest(problem="mis", model="cclique", graph=g))
    print(res.solution_size, res.rounds, res.words_moved)

See ``DESIGN.md`` for the system inventory and the "Benchmarks" and
"Performance & CI" sections of ``README.md`` for the benches and the
``perfbench`` workloads.
"""

from .graphs import Graph, gnp_random_graph, power_law_graph  # noqa: F401
from .core import (  # noqa: F401
    MISResult,
    MatchingResult,
    Params,
    deterministic_maximal_matching,
    deterministic_mis,
)
from .core.api import maximal_independent_set, maximal_matching  # noqa: F401
from .verify import (  # noqa: F401
    is_independent_set,
    is_matching,
    is_maximal_independent_set,
    is_maximal_matching,
    verify_matching_pairs,
    verify_mis_nodes,
)

__version__ = "1.0.0"


__all__ = [
    "Graph",
    "MISResult",
    "MatchingResult",
    "Params",
    "SolveRequest",
    "SolveResult",
    "deterministic_maximal_matching",
    "deterministic_mis",
    "gnp_random_graph",
    "is_independent_set",
    "is_matching",
    "is_maximal_independent_set",
    "is_maximal_matching",
    "maximal_independent_set",
    "maximal_matching",
    "power_law_graph",
    "solve",
    "verify_matching_pairs",
    "verify_mis_nodes",
    "__version__",
]

#: Facade symbols resolved lazily: ``repro.api`` imports every model
#: simulator, which a bare ``import repro`` should not pay for.
_API_LAZY = ("SolveRequest", "SolveResult", "solve")


def __getattr__(name: str):
    if name in _API_LAZY:
        from . import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
