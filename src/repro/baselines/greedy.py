"""Sequential greedy oracles (correctness references, not MPC algorithms).

Greedy MIS/matching by increasing node/edge id: the classical linear-time
constructions whose outputs are maximal by induction.  Used by the test
suite as independent ground truth, by benchmarks for solution-quality
comparisons (matching size, MIS size), and by
:func:`~repro.cclique.mis_cc.cc_maximal_matching` on the remainder it
collects onto one machine.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph

__all__ = ["greedy_matching", "greedy_mis"]


def greedy_mis(g: Graph) -> np.ndarray:
    """Lexicographically-first MIS; returns sorted node ids."""
    taken = np.zeros(g.n, dtype=bool)
    blocked = np.zeros(g.n, dtype=bool)
    for v in range(g.n):
        if blocked[v]:
            continue
        taken[v] = True
        blocked[v] = True
        blocked[g.neighbors(v)] = True
    return np.nonzero(taken)[0].astype(np.int64)


def greedy_matching(g: Graph) -> np.ndarray:
    """Lexicographically-first maximal matching; returns (k, 2) pairs."""
    used = np.zeros(g.n, dtype=bool)
    pairs: list[tuple[int, int]] = []
    for u, v in zip(g.edges_u.tolist(), g.edges_v.tolist()):
        if not used[u] and not used[v]:
            used[u] = True
            used[v] = True
            pairs.append((u, v))
    return (
        np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if pairs
        else np.empty((0, 2), dtype=np.int64)
    )
