"""Israeli-Itai randomized maximal matching [35] (O(log n) rounds).

The classical two-step proposal protocol, one of the PRAM algorithms the
paper's introduction cites as the O(log n) randomized yardstick:

1. every non-isolated node picks one incident edge uniformly at random
   ("proposal");
2. an edge proposed from both sides, or proposed by one side and accepted
   by the other (each node accepts one incoming proposal at random), joins
   a candidate set; conflicts at shared endpoints are broken by coin flips
   (here: by keeping the lexicographically smallest winning edge per node,
   applied to a random permutation -- same distribution, simpler code).

Matched nodes are removed; in expectation a constant fraction of edges
disappears per round.

Instead of rebuilding the residual graph every iteration, the solver keeps
an alive-edge mask plus the same amortized compaction the Luby solvers use,
and resolves each node's random proposal with the
:func:`~repro.graphs.kernels.alive_arc_select` kernel, whose arc order
matches the rebuilt graph's CSR order -- so it consumes the RNG stream
exactly as the rebuild formulation does and returns the same matching (the
reference solver in ``tests/test_kernels_equivalence.py`` pins this).
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..graphs.kernels import alive_arc_select, alive_edge_degrees
from .luby import BaselineResult, _maybe_compact_flagged

__all__ = ["israeli_itai_matching"]


def israeli_itai_matching(
    g: Graph,
    seed: int,
    *,
    max_iterations: int = 10_000,
) -> BaselineResult:
    rng = np.random.default_rng(seed)
    cur = g
    alive_e = np.ones(cur.m, dtype=bool)
    alive_ids = np.nonzero(alive_e)[0]
    pairs: list[np.ndarray] = []
    trace: list[int] = []
    it = 0
    while alive_ids.size > 0:
        it += 1
        if it > max_iterations:
            raise RuntimeError("Israeli-Itai failed to converge")
        compacted, (cur, alive_e) = _maybe_compact_flagged(
            cur, alive_e, alive_ids.size
        )
        if compacted:
            alive_ids = np.nonzero(alive_e)[0]
        eu, ev = cur.edges_u, cur.edges_v
        trace.append(alive_ids.size)

        # Step 1: each live node proposes a uniform surviving incident edge.
        deg = alive_edge_degrees(cur, alive_e)
        live = np.nonzero(deg > 0)[0]
        proposal = np.full(g.n, -1, dtype=np.int64)
        offsets = (rng.random(live.size) * deg[live]).astype(np.int64)
        proposal[live] = alive_arc_select(cur, alive_e, live, offsets)

        # Step 2: edges proposed by both endpoints are strong candidates;
        # otherwise a node accepts one random incoming proposal.
        au, av = eu[alive_ids], ev[alive_ids]
        both = (proposal[au] == alive_ids) & (proposal[av] == alive_ids)
        one_sided = (
            (proposal[au] == alive_ids) | (proposal[av] == alive_ids)
        ) & ~both
        cand = np.nonzero(both | one_sided)[0]
        if cand.size == 0:
            continue
        # Conflict resolution: random priority per candidate edge, each node
        # keeps its best candidate, edge wins if best at both ends.
        prio = rng.permutation(cand.size)
        best = np.full(g.n, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(best, au[cand], prio)
        np.minimum.at(best, av[cand], prio)
        win = (best[au[cand]] == prio) & (best[av[cand]] == prio)
        eids = alive_ids[cand[win]]
        if eids.size == 0:
            continue
        pairs.append(np.stack([eu[eids], ev[eids]], axis=1))
        kill = np.zeros(g.n, dtype=bool)
        kill[eu[eids]] = True
        kill[ev[eids]] = True
        alive_e &= ~(kill[eu] | kill[ev])
        alive_ids = np.nonzero(alive_e)[0]
    sol = (
        np.concatenate(pairs, axis=0) if pairs else np.empty((0, 2), dtype=np.int64)
    )
    return BaselineResult(
        solution=sol,
        iterations=it,
        rounds=2 * it,  # two communication steps per iteration
        edge_trace=tuple(trace),
        algorithm="israeli_itai",
    )
