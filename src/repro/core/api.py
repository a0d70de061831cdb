"""Top-level dispatch (Theorem 1): pick the regime by maximum degree.

The paper runs the Section-5 algorithm when ``Delta <= n^{delta}`` and the
general ``O(log n)`` algorithm otherwise (the latter is ``O(log Delta)``
rounds in that regime because ``log Delta = Theta(log n)``).

At the finite sizes a simulation runs, ``n^{delta}`` is a very small number,
so a literal threshold would never select the low-degree path.  The
*operational* requirement behind the paper's threshold is that 2-hop (and
``r``-hop, after shrinking ``ell``) neighbourhoods fit in machine space; we
therefore dispatch on ``Delta^2 + 1 <= S`` by default (``paper_rule=True``
restores the literal ``Delta <= n^{delta}`` rule).  The low-degree driver
itself re-verifies ball sizes against ``S`` and shrinks ``ell`` as needed,
so the dispatch rule only affects which theorem's round bound applies.
"""

from __future__ import annotations

from ..graphs.graph import Graph
from ..mpc.context import MPCContext
from .lowdeg import lowdeg_maximal_matching, lowdeg_mis
from .matching import deterministic_maximal_matching
from .mis import deterministic_mis
from .params import Params
from .records import MatchingResult, MISResult

__all__ = [
    "lowdeg_path_rule",
    "maximal_independent_set",
    "maximal_matching",
    "uses_lowdeg_path",
]


def uses_lowdeg_path(
    graph: Graph, params: Params, *, paper_rule: bool = False, for_matching: bool = False
) -> bool:
    """True iff the Section-5 path will be taken for this input."""
    return lowdeg_path_rule(
        graph.n, graph.max_degree(), params,
        paper_rule=paper_rule, for_matching=for_matching,
    )


def lowdeg_path_rule(
    n: int,
    delta_max: int,
    params: Params,
    *,
    paper_rule: bool = False,
    for_matching: bool = False,
) -> bool:
    """:func:`uses_lowdeg_path` for an ``n``-node input of maximum degree
    ``delta_max``: a derived graph's path, decided before it is built."""
    if delta_max == 0:
        return True
    if paper_rule:
        return delta_max <= params.low_degree_threshold(n)
    s = MPCContext.for_size(n, 0, params).S
    eff = 2 * delta_max - 2 if for_matching else delta_max  # line-graph degree
    return max(eff, 1) ** 2 + 1 <= s


def maximal_independent_set(
    graph: Graph,
    *,
    eps: float = 0.5,
    params: Params | None = None,
    force: str | None = None,
    paper_rule: bool = False,
    ctx=None,
) -> MISResult:
    """Deterministic MIS, ``O(log Delta + log log n)`` rounds (Theorem 1).

    ``force`` may be ``"general"`` or ``"lowdeg"`` to pin the code path.
    Passing a ``ctx`` (:class:`~repro.mpc.context.MPCContext`) lets callers
    own the round/space ledger.

    .. note:: Prefer the unified facade
       ``repro.api.solve(SolveRequest(problem="mis", model="simulated",
       graph=g))`` — it returns the same result inside a
       :class:`~repro.api.SolveResult` envelope (with the model snapshot and
       verification certificate attached).  This entry point stays as a
       bit-identical thin path for existing callers.
    """
    params = params or Params(eps=eps)
    if force == "general":
        return deterministic_mis(graph, params, ctx=ctx)
    if force == "lowdeg":
        return lowdeg_mis(graph, params, ctx=ctx)
    if force is not None:
        raise ValueError(f"unknown force={force!r}")
    if uses_lowdeg_path(graph, params, paper_rule=paper_rule):
        return lowdeg_mis(graph, params, ctx=ctx)
    return deterministic_mis(graph, params, ctx=ctx)


def maximal_matching(
    graph: Graph,
    *,
    eps: float = 0.5,
    params: Params | None = None,
    force: str | None = None,
    paper_rule: bool = False,
    ctx=None,
) -> MatchingResult:
    """Deterministic maximal matching (Theorem 1); see MIS dispatch.

    .. note:: Prefer ``repro.api.solve(SolveRequest(problem="matching",
       model="simulated", graph=g))``; this entry point stays as a
       bit-identical thin path for existing callers.
    """
    params = params or Params(eps=eps)
    if force == "general":
        return deterministic_maximal_matching(graph, params, ctx=ctx)
    if force == "lowdeg":
        return lowdeg_maximal_matching(graph, params, ctx=ctx)
    if force is not None:
        raise ValueError(f"unknown force={force!r}")
    if uses_lowdeg_path(graph, params, paper_rule=paper_rule, for_matching=True):
        return lowdeg_maximal_matching(graph, params, ctx=ctx)
    return deterministic_maximal_matching(graph, params, ctx=ctx)
