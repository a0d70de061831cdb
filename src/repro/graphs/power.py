"""Graph powers and r-hop neighbourhood (ball) extraction.

Everything here walks one row-block iterator (``product_blocks``) over
``A (A + I)^(r-1)``, the boolean product that reaches every node within
``r`` hops (and, for ``r >= 2``, each non-isolated node itself, out and
back).  Blocks are cut so that no product step expands more than
``_BLOCK_WALKS`` walks, so the iterator holds the graph plus one block,
never all of ``G^r``.  The line graph's r = 2 count walks the same iterator
over ``G``'s incidences (``linegraph.line_graph_ball2_sizes``).

* ``ball_sizes`` keeps only the row counts ``|B_r(v)|``.  They are what the
  Section-5 space accounting (``Delta^r <= n^{delta}``) checks, and at
  ``r = 2`` their maximum, ``Delta(G^2)``, decides whether the distance-2
  coloring needs a Linial reduction step at all.  With ``max_ball`` the
  count gives up at the first block holding a larger ball.
* ``hop_pattern`` writes the rows, diagonal dropped and unsorted, into one
  array preallocated from those counts: the adjacency pattern of ``G^r`` as
  a boolean CSR.  At ``r = 2`` it is the two-hop conflict structure that a
  Linial reduction step colors.
* ``square_graph`` sorts that pattern into ``G^2`` as a canonical
  :class:`Graph`, for the 2-ruling set.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import scipy.sparse as sp

from .graph import Graph

__all__ = [
    "BallTooLargeError",
    "adjacency_matrix",
    "ball_sizes",
    "hop_pattern",
    "square_graph",
]

#: Walks (nonzero products ``R[v, u] (A + I)[u, w]``) one product step of a
#: row block may expand; a block's product has at most this many entries.
#: A single row with more walks is a block of its own.
_BLOCK_WALKS = 1 << 22


class BallTooLargeError(ValueError):
    """A ball has more members than ``max_ball`` allows."""


def adjacency_matrix(g: Graph) -> sp.csr_matrix:
    """Boolean CSR adjacency matrix of ``g``, on the graph's own arcs."""
    data = np.ones(g.indices.size, dtype=bool)
    return sp.csr_matrix((data, g.indices, g.indptr), shape=(g.n, g.n))


def budget_slices(weights: np.ndarray, budget: int) -> Iterator[tuple[int, int]]:
    """Consecutive ``[i, j)`` ranges covering ``weights``, greedily as long
    as each range's weights sum to at most ``budget``; a heavier single item
    forms a range of its own."""
    ends = np.cumsum(weights)
    i = 0
    while i < weights.size:
        before = int(ends[i - 1]) if i else 0
        j = max(i + 1, int(np.searchsorted(ends, before + budget, side="right")))
        yield i, j
        i = j


def product_blocks(
    start: sp.csr_matrix, steps: list[sp.csr_matrix]
) -> Iterator[tuple[int, sp.csr_matrix]]:
    """``(lo, block)`` for consecutive row blocks of the boolean product
    ``start @ steps[0] @ steps[1] ...``.

    ``block`` holds rows ``lo:lo + block.shape[0]`` as a boolean CSR with
    unsorted rows.  Before each product step a block is cut by its rows'
    walk counts (row ``v`` of ``R`` expands ``sum_{u in R[v]} nnz(step[u])``
    walks), so every step stays within ``_BLOCK_WALKS``.
    """

    def expand(reach: sp.csr_matrix, lo: int, rest: list[sp.csr_matrix]):
        if not rest:
            yield lo, reach
            return
        step, fan_out = rest[0], np.diff(rest[0].indptr)
        for i, j in budget_slices(reach @ fan_out, _BLOCK_WALKS):
            yield from expand(reach[i:j] @ step, lo + i, rest[1:])

    yield from expand(start, 0, steps)


def _reach_blocks(g: Graph, r: int) -> Iterator[tuple[int, sp.csr_matrix]]:
    """``(lo, block)`` for consecutive row blocks of ``A (A + I)^(r-1)``,
    the diagonal kept; at ``r = 2`` row ``v`` expands
    ``sum_{u ~ v} (deg u + 1)`` walks."""
    a = adjacency_matrix(g)
    step = a + sp.identity(g.n, dtype=bool, format="csr")
    return product_blocks(a, [step] * (r - 1))


def ball_sizes(g: Graph, r: int, *, max_ball: int | None = None) -> np.ndarray:
    """int64[n]: ``|B_r(v)|`` excluding ``v``, counted block by block.

    Only the counts are kept.  ``max_ball`` (if given) raises
    :class:`BallTooLargeError` at the first row block holding a ball with
    more members, before any later block is expanded -- the simulator uses
    this to check the paper's space guarantee ``Delta^r = O(n^{delta})``
    before "gathering onto one machine".
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    sizes = np.zeros(g.n, dtype=np.int64)
    if r == 0 or g.n == 0:
        return sizes
    for lo, block in _reach_blocks(g, r):
        counts = np.diff(block.indptr).astype(np.int64)
        if r >= 2:  # the row holds v itself iff v has a neighbour
            counts -= np.diff(g.indptr[lo : lo + counts.size + 1]) > 0
        sizes[lo : lo + counts.size] = counts
        if max_ball is not None and counts.max(initial=0) > max_ball:
            v = lo + int(np.argmax(counts))
            raise BallTooLargeError(
                f"ball of v={v} has {int(sizes[v])} vertices > max_ball={max_ball}"
            )
    return sizes


def hop_pattern(
    g: Graph, r: int = 2, *, sizes: np.ndarray | None = None
) -> sp.csr_matrix:
    """Boolean CSR of ``0 < dist(u, v) <= r``: no diagonal, unsorted rows.

    The rows are written block by block into one index array preallocated
    from ``sizes`` (``ball_sizes(g, r)``, counted here unless the caller
    already has them).  Each non-isolated row's one self-arc is dropped,
    since it would clash with itself at every Linial evaluation point.  Rows
    keep the product's arc order: colouring and ball sizes only need arcs
    grouped by row, so nothing pays for a sort.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if sizes is None:
        sizes = ball_sizes(g, r)
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    index_dtype = np.int32 if g.n <= np.iinfo(np.int32).max else np.int64
    indices = np.empty(int(indptr[-1]), dtype=index_dtype)
    for lo, block in _reach_blocks(g, r):
        hi = lo + block.shape[0]
        cols = block.indices
        rows = np.repeat(np.arange(lo, hi, dtype=cols.dtype), np.diff(block.indptr))
        indices[indptr[lo] : indptr[hi]] = cols[cols != rows]
    data = np.ones(indices.size, dtype=bool)
    return sp.csr_matrix((data, indices, indptr), shape=(g.n, g.n))


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
