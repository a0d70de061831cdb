"""Graph powers and r-hop neighbourhood (ball) extraction.

Two primitives the paper relies on:

* ``square_adjacency`` -- the 2-hop conflict structure ``G^2`` used for the
  Section-5 distance-2 coloring (nodes within 2 hops must get distinct
  colors so color-hashing preserves local pairwise independence).
* ``r_hop_balls`` -- the sets ``B_r(v)`` that machines gather in Section 5's
  preprocessing ("collect the r-th hop neighbourhood of each node"); ball
  sizes are also what the space accounting (``Delta^r <= n^{delta}``) is
  checked against.

Both use scipy.sparse boolean matrix powers for the heavy lifting.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graph import Graph

__all__ = ["adjacency_matrix", "ball_sizes", "r_hop_balls", "square_graph"]


def adjacency_matrix(g: Graph) -> sp.csr_matrix:
    """Boolean CSR adjacency matrix of ``g``."""
    m = g.m
    data = np.ones(2 * m, dtype=bool)
    rows = np.concatenate([g.edges_u, g.edges_v])
    cols = np.concatenate([g.edges_v, g.edges_u])
    return sp.csr_matrix((data, (rows, cols)), shape=(g.n, g.n), dtype=bool)


def square_graph(g: Graph) -> Graph:
    """``G^2``: edge {u, v} iff ``0 < dist(u, v) <= 2``.

    Degree of ``G^2`` is at most ``Delta^2``, so a proper coloring of ``G^2``
    with ``O(Delta^2)``-ish colors is a distance-2 coloring of ``G`` -- the
    renaming device of Section 5.1.
    """
    a = adjacency_matrix(g)
    reach2 = (a @ a).astype(bool) + a
    reach2.sum_duplicates()  # canonical CSR: sorted, duplicate-free rows
    rows = np.repeat(np.arange(g.n, dtype=reach2.indices.dtype), np.diff(reach2.indptr))
    upper = reach2.indices > rows
    # A canonical CSR's row-major upper triangle already is the sorted,
    # duplicate-free u < v edge list, so it skips from_edges' sort.
    return Graph._from_canonical(
        g.n, rows[upper].astype(np.int64), reach2.indices[upper].astype(np.int64)
    )


def r_hop_balls(g: Graph, r: int, *, max_ball: int | None = None) -> list[np.ndarray]:
    """For each vertex v, the sorted array of vertices within distance r
    (excluding v itself).

    ``max_ball`` (if given) raises if any ball exceeds that many vertices --
    the simulator uses this to assert the paper's space guarantee
    ``Delta^r = O(n^{delta})`` before "gathering onto one machine".
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0 or g.n == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(g.n)]
    reach = _reach_within(g, r)
    if max_ball is not None:
        sizes = np.diff(reach.indptr)
        if sizes.size and sizes.max(initial=0) > max_ball:
            v = int(np.argmax(sizes))
            raise ValueError(
                f"ball of v={v} has {int(sizes[v])} vertices > max_ball={max_ball}"
            )
    indices = reach.indices.astype(np.int64)
    indptr = reach.indptr
    return [indices[indptr[v] : indptr[v + 1]] for v in range(g.n)]


def _reach_within(g: Graph, r: int) -> sp.csr_matrix:
    """Boolean CSR of "distance in [1, r]" with sorted column indices.

    The diagonal is dropped with a vectorised COO filter (the old
    ``tolil().setdiag(False)`` round-trip was a per-element Python loop).
    """
    a = adjacency_matrix(g)
    reach = a.copy()
    frontier = a
    for _ in range(r - 1):
        frontier = (frontier @ a).astype(bool)
        reach = (reach + frontier).astype(bool)
    coo = reach.tocoo()
    off_diag = coo.row != coo.col
    reach = sp.csr_matrix(
        (coo.data[off_diag], (coo.row[off_diag], coo.col[off_diag])),
        shape=(g.n, g.n),
        dtype=bool,
    )
    reach.sort_indices()
    return reach


def ball_sizes(g: Graph, r: int) -> np.ndarray:
    """int64[n]: |B_r(v)| excluding v (cheap summary used by space checks)."""
    if r == 0 or g.n == 0:
        return np.zeros(g.n, dtype=np.int64)
    return np.diff(_reach_within(g, r).indptr).astype(np.int64)
