"""The lexicographically-first MIS, as a sequential test oracle.

Greedy by increasing node id: the classical linear-time construction whose
output is maximal by induction.  ``tests/test_properties.py`` compares the
deterministic MIS sizes against it.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph


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
