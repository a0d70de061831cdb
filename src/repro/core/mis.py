"""Deterministic MIS in O(log n) MPC rounds (Theorem 14).

Algorithm 3 of the paper::

    while |E(G)| > 0:
        add all isolated nodes to the MIS, remove them
        compute i, B and Q_0                       (good_nodes, Cor 15/16)
        select Q' ⊆ Q_0 inducing a low-degree subgraph    (sparsify, Sec 4.2)
        find I ⊆ Q' with covered weight Ω(|E|)            (Luby step, Sec 4.3)
        add I to the MIS, remove I ∪ N(I)

Each iteration removes ``>= delta^2 |E| / 400`` edges (Lemma-21 constants),
so ``O(log n)`` iterations suffice; remaining isolated nodes join at the end.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..mpc.context import MPCContext
from .good_nodes import good_nodes_mis
from .luby_step import luby_mis_step
from .params import Params
from .records import IterationRecord, MISResult
from .sparsify_nodes import sparsify_nodes

__all__ = ["deterministic_mis"]


def deterministic_mis(
    graph: Graph,
    params: Params | None = None,
    *,
    ctx: MPCContext | None = None,
    max_iterations: int | None = None,
) -> MISResult:
    """Run Algorithm 3 to completion; returns the MIS and full trace."""
    params = params or Params()
    ctx = ctx or MPCContext.for_graph(graph, params)
    fidelity: list[str] = []
    records: list[IterationRecord] = []
    in_mis = np.zeros(graph.n, dtype=bool)
    removed = np.zeros(graph.n, dtype=bool)  # in MIS or dominated by it
    g = graph
    iteration = 0
    cap = max_iterations if max_iterations is not None else 64 + 16 * max(
        1, int(np.ceil(np.log2(max(graph.m, 2))))
    )

    while g.m > 0:
        iteration += 1
        if iteration > cap:
            raise RuntimeError(
                f"MIS failed to converge within {cap} iterations "
                f"({g.m} edges left); fidelity={fidelity}"
            )
        edges_before = g.m

        # Isolated nodes (not yet decided) join the MIS for free.
        iso = g.isolated_mask() & ~removed
        in_mis |= iso
        removed |= iso

        good = good_nodes_mis(g, params)
        ctx.charge_prefix_sum("good_nodes")
        ctx.charge_prefix_sum("good_nodes")
        ctx.charge_prefix_sum("good_nodes")

        spars = sparsify_nodes(g, good, params, ctx, fidelity)
        i_mask, info = luby_mis_step(g, spars.mask, good, params, ctx, fidelity)
        if not i_mask.any():
            raise AssertionError("Luby MIS step returned an empty set")

        # Remove I ∪ N(I).
        dominated = g.degrees_toward(i_mask) > 0
        kill = i_mask | dominated
        in_mis |= i_mask
        removed |= kill
        g = g.remove_vertices(kill)
        ctx.charge_broadcast("remove")

        records.append(
            IterationRecord(
                iteration=iteration,
                edges_before=edges_before,
                edges_after=g.m,
                i_star=good.i_star,
                num_good_nodes=good.num_good,
                weight_b=good.weight_b,
                stages=spars.stages,
                selection_value=info.selection.value,
                selection_target=info.target,
                selection_trials=info.selection.trials,
                selection_satisfied=info.selection.satisfied,
                seed_bits=info.seed_bits,
                nodes_removed=int(kill.sum()),
            )
        )

    # Graph is edgeless: every undecided node is isolated and joins the MIS.
    in_mis |= ~removed
    return MISResult(
        independent_set=np.nonzero(in_mis)[0].astype(np.int64),
        iterations=iteration,
        rounds=ctx.rounds,
        rounds_by_category={**ctx.by_category, "total": ctx.rounds},
        max_machine_words=ctx.max_words_seen,
        space_limit=ctx.S,
        words_moved=ctx.words_moved,
        records=tuple(records),
        fidelity_events=tuple(fidelity),
    )
