"""Graph powers and r-hop neighbourhood (ball) extraction.

One primitive, ``hop_pattern``, gives the adjacency pattern of ``G^r``
(``0 < dist <= r``) as a boolean CSR with no diagonal and unsorted rows.  At
``r = 2`` it is the 2-hop conflict structure of the Section-5 distance-2
coloring (nodes within 2 hops must get distinct colors so color-hashing
preserves local pairwise independence).  On it sit ``r_hop_balls``, the sets
``B_r(v)`` that machines gather in Section 5's preprocessing ("collect the
r-th hop neighbourhood of each node"); ``ball_sizes``, what the space
accounting (``Delta^r <= n^{delta}``) is checked against; and
``square_graph``, ``G^2`` as a canonical :class:`Graph` for the 2-ruling set
and the validators.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graph import Graph

__all__ = ["adjacency_matrix", "ball_sizes", "hop_pattern", "r_hop_balls", "square_graph"]


def adjacency_matrix(g: Graph) -> sp.csr_matrix:
    """Boolean CSR adjacency matrix of ``g``."""
    m = g.m
    data = np.ones(2 * m, dtype=bool)
    rows = np.concatenate([g.edges_u, g.edges_v])
    cols = np.concatenate([g.edges_v, g.edges_u])
    return sp.csr_matrix((data, (rows, cols)), shape=(g.n, g.n), dtype=bool)


def hop_pattern(g: Graph, r: int = 2) -> sp.csr_matrix:
    """Boolean CSR of ``0 < dist(u, v) <= r``: no diagonal, unsorted rows.

    ``A (A + I)^(r-1)`` reaches every node within ``r`` hops, and for
    ``r >= 2`` also each non-isolated node itself (out and back).  That one
    self-arc per row is dropped, since it would clash with itself at every
    Linial evaluation point.  Rows keep the product's arc order: colouring
    and ball sizes only need arcs grouped by row, so nothing pays for a sort.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    a = adjacency_matrix(g)
    if r == 1:
        return a
    step = a + sp.identity(g.n, dtype=bool, format="csr")
    reach = a
    for _ in range(r - 1):
        reach = reach @ step
    rows = np.repeat(np.arange(g.n, dtype=reach.indices.dtype), np.diff(reach.indptr))
    off_diag = reach.indices != rows
    # Each non-isolated row held exactly one self-arc; shift row starts by
    # the self-arcs of the rows before them.
    shift = np.concatenate(([0], np.cumsum(np.diff(a.indptr) > 0)))
    return sp.csr_matrix(
        (reach.data[off_diag], reach.indices[off_diag], reach.indptr - shift),
        shape=(g.n, g.n),
    )


def square_graph(g: Graph) -> Graph:
    """``G^2``: edge {u, v} iff ``0 < dist(u, v) <= 2``.

    Degree of ``G^2`` is at most ``Delta^2``, so a proper coloring of ``G^2``
    with ``O(Delta^2)``-ish colors is a distance-2 coloring of ``G`` -- the
    renaming device of Section 5.1.
    """
    reach2 = hop_pattern(g)
    reach2.sort_indices()
    rows = np.repeat(np.arange(g.n, dtype=reach2.indices.dtype), np.diff(reach2.indptr))
    upper = reach2.indices > rows
    # A row-sorted pattern's row-major upper triangle already is the sorted,
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
    reach = hop_pattern(g, r)
    if max_ball is not None:
        sizes = np.diff(reach.indptr)
        if sizes.size and sizes.max(initial=0) > max_ball:
            v = int(np.argmax(sizes))
            raise ValueError(
                f"ball of v={v} has {int(sizes[v])} vertices > max_ball={max_ball}"
            )
    reach.sort_indices()
    indices = reach.indices.astype(np.int64)
    indptr = reach.indptr
    return [indices[indptr[v] : indptr[v + 1]] for v in range(g.n)]


def ball_sizes(g: Graph, r: int) -> np.ndarray:
    """int64[n]: |B_r(v)| excluding v (cheap summary used by space checks)."""
    if r == 0 or g.n == 0:
        return np.zeros(g.n, dtype=np.int64)
    return np.diff(hop_pattern(g, r).indptr).astype(np.int64)
