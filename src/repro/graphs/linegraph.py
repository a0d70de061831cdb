"""Line-graph construction (matching = MIS on the line graph).

The paper uses the classical reduction in two places:

* Section 1.1.2 / Section 5: for ``Delta = O(n^{delta})`` one can find a
  maximal matching by simulating MIS on the line graph ``L(G)``, since
  ``Delta(L(G)) <= 2 Delta(G) - 2`` stays in the low-degree regime.
* Corollary 2 (CONGESTED CLIQUE).

``L(G)`` has one vertex per edge of ``G`` and an edge between every pair of
``G``-edges sharing an endpoint, so ``|E(L(G))| = sum_v C(d(v), 2)``; we guard
against accidental quadratic blowups with an explicit cap.  The r = 2 ball
sizes Section 5 needs of ``L(G)`` are counted on ``G`` itself
(:func:`line_graph_ball2_sizes`).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graph import Graph
from .power import adjacency_matrix, product_blocks

__all__ = ["line_graph", "line_graph_ball2_sizes", "line_graph_size"]


def line_graph_size(g: Graph) -> int:
    """Number of edges ``L(G)`` would have (``sum_v d(v) (d(v)-1) / 2``)."""
    d = g.degrees().astype(np.int64)
    return int((d * (d - 1) // 2).sum())


def line_graph(g: Graph, *, max_edges: int | None = 50_000_000) -> Graph:
    """Construct ``L(G)``.  Vertex ``e`` of the result is edge id ``e`` of g.

    ``L(G)``'s canonical edge list is written in closed form, with no sort.
    For an edge ``a = {u, v}``, ``u < v``, the larger ids among its
    neighbours in ``L(G)`` are two tails in ascending edge-id order: the
    edges after ``a`` in ``u``'s incident-edge list, then those after ``a``
    in ``v``'s.  The first all lie in ``u``'s block of edge ids (the edges
    whose lower endpoint is ``u``) and the second in later blocks, so row
    ``a`` is sorted and duplicate-free, and the rows in order are the
    canonical list.  ``G``'s CSR row ``x`` holds ``x``'s block, then the
    lower edges of ``x`` by id, so ``u``'s tail is the rest of ``u``'s
    block and ``v``'s tail is the rest of ``v``'s lower edges, then all of
    ``v``'s block: three runs of ``arc_edge_ids``.

    Raises ``ValueError`` if the result would exceed ``max_edges`` edges.
    """
    expected = line_graph_size(g)
    if max_edges is not None and expected > max_edges:
        raise ValueError(
            f"line graph would have {expected} edges (> cap {max_edges}); "
            "raise max_edges explicitly if intended"
        )
    n, m = g.n, g.m
    indptr, eids = g.indptr, g.arc_edge_ids
    u, v = g.edges_u, g.edges_v
    block = np.bincount(u, minlength=n)  # row x opens with its block's arcs
    ids = np.arange(m, dtype=np.int64)
    at_u = indptr[u] + ids - (np.cumsum(block) - block)[u]  # a's arc in row u
    # a's arc in row v: the lower arcs are each row's arcs past its block.
    arcs = np.arange(eids.size, dtype=np.int64)
    lower = arcs - np.repeat(indptr[:-1] + block, np.diff(indptr)) >= 0
    at_v = np.empty(m, dtype=np.int64)
    at_v[eids[lower]] = arcs[lower]
    del arcs, lower
    starts = np.stack([at_u + 1, at_v + 1, indptr[v]], axis=1).ravel()
    lens = np.stack(
        [indptr[u] + block[u] - at_u - 1, indptr[v + 1] - at_v - 1, block[v]], axis=1
    )
    pos = np.repeat(starts - (np.cumsum(lens) - lens.ravel()), lens.ravel())
    pos += np.arange(pos.size, dtype=np.int64)
    return Graph._from_canonical(m, np.repeat(ids, lens.sum(axis=1)), eids[pos])


def line_graph_ball2_sizes(g: Graph) -> np.ndarray:
    """int64[m]: ``ball_sizes(line_graph(g), 2)``, counted on ``g``.

    For an edge ``e = {u, v}``, ``B_2(e)`` together with ``e`` is the set of
    edges with an endpoint in ``N(u) | N(v)``.  With ``E`` the edge->endpoint
    incidence and ``B`` the node->edge incidence (whose CSR is ``g``'s
    ``(indptr, arc_edge_ids)``), row ``e`` of ``E A`` is ``N(u) | N(v)``, so
    ``|B_2(e)|`` is the row count of ``E A B`` minus one.  The product runs
    in row blocks of at most ``_BLOCK_WALKS`` walks per step, as
    ``ball_sizes`` does.
    """
    m = g.m
    sizes = np.zeros(m, dtype=np.int64)
    if m == 0:
        return sizes
    flags = np.ones(2 * m, dtype=bool)
    endpoints = np.stack([g.edges_u, g.edges_v], axis=1).ravel()
    ends = sp.csr_matrix(
        (flags, endpoints, np.arange(0, 2 * m + 1, 2)), shape=(m, g.n)
    )
    incidence = sp.csr_matrix((flags, g.arc_edge_ids, g.indptr), shape=(g.n, m))
    for lo, block in product_blocks(ends, [adjacency_matrix(g), incidence]):
        sizes[lo : lo + block.shape[0]] = np.diff(block.indptr) - 1
    return sizes
