"""Deterministic maximal matching in O(log n) MPC rounds (Theorem 7).

Algorithm 2 of the paper::

    while |E(G)| > 0:
        compute i, B and E_0                      (good_nodes, Lemma 3/Cor 8)
        select E* ⊆ E_0 inducing a low-degree subgraph   (sparsify, Sec 3.2)
        find matching M ⊆ E* with covered weight Ω(|E|)  (Luby step, Sec 3.3)
        add M to the output, remove matched nodes

Each iteration costs O(1) charged MPC rounds and removes a constant fraction
of the edges (at least ``delta |E| / 536`` by the Lemma-13 constants), so
``O(log n)`` iterations / rounds suffice.  The run record captures the
per-iteration progress so T1/T3 benchmarks can verify both claims.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..mpc.context import MPCContext
from .good_nodes import good_nodes_matching
from .luby_step import luby_matching_step
from .params import Params
from .records import IterationRecord, MatchingResult
from .sparsify_edges import sparsify_edges

__all__ = ["deterministic_maximal_matching"]


def deterministic_maximal_matching(
    graph: Graph,
    params: Params | None = None,
    *,
    ctx: MPCContext | None = None,
    max_iterations: int | None = None,
) -> MatchingResult:
    """Run Algorithm 2 to completion; returns the matching and full trace."""
    params = params or Params()
    ctx = ctx or MPCContext.for_graph(graph, params)
    fidelity: list[str] = []
    records: list[IterationRecord] = []
    pairs: list[np.ndarray] = []
    g = graph
    iteration = 0
    cap = max_iterations if max_iterations is not None else 64 + 8 * max(
        1, int(np.ceil(np.log2(max(graph.m, 2))))
    )

    while g.m > 0:
        iteration += 1
        if iteration > cap:
            raise RuntimeError(
                f"matching failed to converge within {cap} iterations "
                f"({g.m} edges left); fidelity={fidelity}"
            )
        edges_before = g.m

        good = good_nodes_matching(g, params)
        # Good-node computation: degrees, X-membership, class sums -- three
        # Lemma-4 aggregations (Section 3.1).
        ctx.charge_prefix_sum("good_nodes")
        ctx.charge_prefix_sum("good_nodes")
        ctx.charge_prefix_sum("good_nodes")

        spars = sparsify_edges(g, good, params, ctx, fidelity)
        matched_eids, info = luby_matching_step(
            g, spars.mask, good, params, ctx, fidelity
        )
        if matched_eids.size == 0:
            # A strict-local-minimum edge always exists in a non-empty E*.
            raise AssertionError("Luby matching step returned no edges")

        mu = g.edges_u[matched_eids]
        mv = g.edges_v[matched_eids]
        pairs.append(np.stack([mu, mv], axis=1))
        removed_mask = np.zeros(g.n, dtype=bool)
        removed_mask[mu] = True
        removed_mask[mv] = True
        g = g.remove_vertices(removed_mask)
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
                nodes_removed=int(removed_mask.sum()),
            )
        )

    all_pairs = (
        np.concatenate(pairs, axis=0) if pairs else np.empty((0, 2), dtype=np.int64)
    )
    return MatchingResult(
        pairs=all_pairs,
        iterations=iteration,
        rounds=ctx.rounds,
        rounds_by_category={**ctx.by_category, "total": ctx.rounds},
        max_machine_words=ctx.max_words_seen,
        space_limit=ctx.S,
        words_moved=ctx.words_moved,
        records=tuple(records),
        fidelity_events=tuple(fidelity),
    )
