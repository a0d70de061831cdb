"""Section 5: MIS and matching in ``O(log Delta + log log n)`` MPC rounds.

For ``Delta <= n^{delta}`` the paper avoids sparsification entirely and
instead compresses Luby phases:

1. **Preprocessing** (``O(log log n)`` rounds): compute an ``O(Delta^4)``
   coloring ``chi`` of ``G^2`` with Linial's algorithm (``O(log* n)``
   rounds), and gather the ``r = 2 ell``-hop neighbourhood of every node
   (``O(log r) = O(log log n)`` rounds by doubling), where
   ``ell = Theta(delta log_Delta n)`` is the number of phases per stage.
2. **Stages** (``O(1)`` rounds each): z-values come from a pairwise family
   ``H*`` over *colors*, so one phase needs an ``O(log Delta)``-bit seed and
   a whole stage's seed sequence fits on one machine.  Every node can replay
   all ``ell`` phases of a stage locally from its ``r``-hop ball, so the
   stage's seeds are selected with one aggregate/broadcast per stage.

Total: ``O(log n) / ell = O(log Delta)`` stages after ``O(log log n)``
preprocessing.  Maximal matching reduces to MIS on the line graph
(``Delta(L(G)) <= 2 Delta - 2`` stays in the regime).

Fidelity note: the paper enumerates all ``|H*|^ell`` seed sequences of a
stage; we select the stage's ``ell`` seeds greedily (deterministic scan per
phase over ``H*``), which achieves the same per-phase progress guarantee --
the existence argument is per-phase -- and the identical round accounting
(phase searches are stage-local computation; see DESIGN.md).
"""

from __future__ import annotations

import math

import numpy as np

from ..graphs.coloring import distance2_coloring
from ..graphs.graph import Graph
from ..graphs.linegraph import line_graph, line_graph_ball2_sizes, line_graph_size
from ..graphs.power import BallTooLargeError, ball_sizes
from ..hashing.families import make_color_family
from ..models.phase import NodePhase, a_set
from ..mpc.context import MPCContext
from ..obs import trace as _obs
from .params import Params
from .records import IterationRecord, MatchingResult, MISResult

__all__ = ["lowdeg_maximal_matching", "lowdeg_mis", "phases_per_stage"]


def phases_per_stage(n: int, max_degree: int, params: Params) -> int:
    """``ell = Theta(delta log_Delta n)``, at least 1."""
    d = max(max_degree, 2)
    ell = int(params.delta_value * math.log(max(n, 2)) / math.log(d))
    return max(1, ell)


def lowdeg_mis(
    graph: Graph,
    params: Params | None = None,
    *,
    ctx: MPCContext | None = None,
    max_phases: int | None = None,
    ball2_sizes: np.ndarray | None = None,
) -> MISResult:
    """Deterministic MIS in ``O(log Delta + log log n)`` charged rounds.

    ``ball2_sizes`` are the r = 2 ball sizes of ``graph``
    (``ball_sizes(graph, 2)``), counted here unless the caller derived them
    from the base graph of a line graph or product graph.

    Once preprocessing ends, the phase loop holds only its residual graph:
    a caller that passes a derived graph without keeping it (as the line
    graph and product callers do) lets it go before the first phase.
    """
    params = params or Params()
    ctx = ctx or MPCContext.for_graph(graph, params)
    fidelity: list[str] = []
    records: list[IterationRecord] = []
    n = graph.n
    delta_max = graph.max_degree()

    if graph.m == 0:
        return MISResult(
            independent_set=np.arange(n, dtype=np.int64),
            iterations=0,
            rounds=0,
            rounds_by_category={"total": 0},
            max_machine_words=0,
            space_limit=ctx.S,
            records=tuple(),
            stages_compressed=0,
            num_colors=0,
        )

    # ---------------- preprocessing (O(log log n) rounds) ---------------- #
    # The r = 2 ball sizes, counted once; the coloring reads Delta(G^2)
    # from them and builds G^2's pattern only if Linial takes a step.
    if ball2_sizes is None:
        ball2_sizes = ball_sizes(graph, 2)
    coloring = distance2_coloring(graph, sizes=ball2_sizes)
    # Linial rounds exchange current colors over every edge (both directions).
    ctx.charge(
        "coloring",
        max(1, coloring.iterations),
        words=2 * graph.m * max(1, coloring.iterations),
    )
    family = make_color_family(coloring.num_colors)
    colors = coloring.colors.astype(np.int64)

    ell = phases_per_stage(n, delta_max, params)
    # Shrink ell until the r = 2*ell-hop balls fit in machine space; a count
    # gives up on r at the first row block holding a ball that does not.
    while ell > 1:
        try:
            sizes = ball_sizes(graph, 2 * ell, max_ball=ctx.S - 1)
            break
        except BallTooLargeError:
            ell -= 1
    else:
        sizes = ball2_sizes
    r = 2 * ell
    ctx.observe_loads(sizes + 1, "r-hop ball gather")
    # Volume: every ball member is one word shipped to the node's machine.
    ctx.charge_gather_rhop(r, "preprocess_gather", words=int(sizes.sum()))

    # ---------------- phases grouped into stages ------------------------- #
    in_mis = np.zeros(n, dtype=bool)
    removed = np.zeros(n, dtype=bool)
    phase = 0
    cap = max_phases if max_phases is not None else 64 + 16 * max(
        1, int(np.ceil(np.log2(max(graph.m, 2))))
    )
    g = graph
    del graph, ball2_sizes, sizes

    while g.m > 0:
        phase += 1
        if phase > cap:
            raise RuntimeError(
                f"low-degree MIS failed to converge within {cap} phases"
            )
        t_phase = _obs.clock() if _obs._TRACING else 0.0
        edges_before = g.m

        iso = g.isolated_mask() & ~removed
        in_mis |= iso
        removed |= iso

        a_mask, w_a = a_set(g)
        luby = NodePhase(g, family, colors=colors)
        # The objective is an integer total of degrees over A; summing via
        # an integer mat-vec is exact (== the float sum the records report).
        deg_sel = (g.degrees() * a_mask).astype(np.int64)
        target = params.mis_target(w_a)
        sel, i_mask = luby.select(
            lambda i_masks: (luby.kill(i_masks) @ deg_sel).astype(np.float64),
            target=target,
            max_trials=params.max_scan_trials,
            # Phase-disjoint offsets into the canonical scan order, which
            # wraps around the family.
            start=1 + (phase - 1) * params.max_scan_trials,
        )
        if not sel.satisfied:
            fidelity.append(
                f"lowdeg phase {phase}: target {target:.2f} not met "
                f"(best {sel.value:.2f})"
            )

        kill = luby.winner_kill()
        # Drop this phase before the residual graph and the next phase.
        del luby
        in_mis |= i_mask
        removed |= kill
        g = g.remove_vertices(kill)

        records.append(
            IterationRecord(
                iteration=phase,
                edges_before=edges_before,
                edges_after=g.m,
                i_star=1,
                num_good_nodes=int(a_mask.sum()),
                weight_b=w_a,
                stages=tuple(),
                selection_value=sel.value,
                selection_target=target,
                selection_trials=sel.trials,
                selection_satisfied=sel.satisfied,
                seed_bits=family.seed_bits,
                nodes_removed=int(kill.sum()),
            )
        )
        if _obs._TRACING:
            _obs.record_span(
                "lowdeg.phase",
                t_phase,
                {
                    "phase": phase,
                    "edges_before": edges_before,
                    "edges_after": g.m,
                    "seed": sel.seed,
                    "trials": sel.trials,
                    "satisfied": sel.satisfied,
                    "nodes_removed": int(kill.sum()),
                },
            )

    in_mis |= ~removed
    # Stage accounting: each block of ell phases costs O(1) rounds (one
    # aggregate to compare candidate stage outcomes + one broadcast).
    stages = max(1, math.ceil(phase / ell))
    for _ in range(stages):
        ctx.charge_aggregate("stage")
        ctx.charge_broadcast("stage")

    return MISResult(
        independent_set=np.nonzero(in_mis)[0].astype(np.int64),
        iterations=phase,
        rounds=ctx.rounds,
        rounds_by_category={**ctx.by_category, "total": ctx.rounds},
        max_machine_words=ctx.max_words_seen,
        space_limit=ctx.S,
        words_moved=ctx.words_moved,
        records=tuple(records),
        fidelity_events=tuple(fidelity),
        stages_compressed=stages,
        num_colors=coloring.num_colors,
    )


def lowdeg_maximal_matching(
    graph: Graph,
    params: Params | None = None,
    *,
    ctx: MPCContext | None = None,
) -> MatchingResult:
    """Maximal matching via MIS on the line graph (Section 5, last para)."""
    params = params or Params()
    ctx = ctx or MPCContext.for_graph(graph, params)
    if graph.m == 0:
        return MatchingResult(
            pairs=np.empty((0, 2), dtype=np.int64),
            iterations=0,
            rounds=0,
            rounds_by_category={"total": 0},
            max_machine_words=0,
            space_limit=ctx.S,
            records=tuple(),
        )
    # Build L(G) by sorting both arc orientations by endpoint.  L(G) goes to
    # lowdeg_mis with no reference kept here, so it is dropped once
    # preprocessing ends; its size has a closed form.
    ctx.charge_sort("line_graph", words=2 * graph.m)
    sub_ctx = MPCContext.for_size(graph.m, line_graph_size(graph), params)
    sub = lowdeg_mis(
        line_graph(graph), params, ctx=sub_ctx, ball2_sizes=line_graph_ball2_sizes(graph)
    )
    matched_eids = sub.independent_set
    pairs = np.stack(
        [graph.edges_u[matched_eids], graph.edges_v[matched_eids]], axis=1
    )
    # L(G)'s run is part of this solve's bill; its charge events are
    # already in the trace, so folding it in emits none.
    ctx.fold(sub_ctx)
    return MatchingResult(
        pairs=pairs,
        iterations=sub.iterations,
        rounds=ctx.rounds,
        rounds_by_category={**ctx.by_category, "total": ctx.rounds},
        max_machine_words=ctx.max_words_seen,
        space_limit=ctx.S,
        words_moved=ctx.words_moved,
        records=sub.records,
        fidelity_events=sub.fidelity_events,
    )
