"""Sequential greedy matching (a correctness reference, not an MPC algorithm).

Greedy matching by increasing edge id: the classical linear-time
construction whose output is maximal by induction.
:func:`~repro.cclique.mis_cc.cc_maximal_matching` runs it on the remainder
it collects onto one machine; the test suite uses it as independent ground
truth.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph

__all__ = ["greedy_matching"]


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
