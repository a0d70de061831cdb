"""Vectorized CSR solver kernels shared by the baselines and simulators.

The per-iteration primitives every Luby-style solver needs -- neighbour
minima, alive-edge degrees, "k-th live incident edge" lookups -- and the
seed-block reductions of the batched seed search are expressed here as
whole-array operations over a :class:`Graph`'s CSR arrays:
``reduceat`` over the arc arrays (an order of magnitude faster than
``np.minimum.at`` scatters on large inputs), one seed row at a time for
blocks of seeds.

All kernels are *exact*: they use only integer arithmetic and order-free
reductions (min / integer sum), so solvers built on them return the same
solutions as a per-iteration rebuild of the residual graph.  That
equivalence is pinned by the pure-Python reference solvers in
``tests/test_kernels_equivalence.py``.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = [
    "SegmentTable",
    "alive_arc_select",
    "alive_edge_degrees",
    "arcs_toward",
    "group_order_indptr",
    "neighbor_min",
    "segment_min",
    "segment_sum",
]


# ---------------------------------------------------------------------- #
# Segment reductions over CSR-style offset arrays
# ---------------------------------------------------------------------- #


def segment_min(values: np.ndarray, indptr: np.ndarray, fill) -> np.ndarray:
    """Per-segment minimum of ``values[indptr[i]:indptr[i+1]]``.

    Empty segments yield ``fill``.  ``reduceat`` runs over the *nonempty*
    segment starts only: consecutive nonempty starts are exactly segment
    boundaries (empty segments have zero width), which sidesteps reduceat's
    out-of-bounds / single-element semantics at empty positions.
    """
    n = indptr.size - 1
    out = np.full(n, fill, dtype=values.dtype)
    if values.size == 0 or n == 0:
        return out
    nonempty = indptr[:-1] < indptr[1:]
    out[nonempty] = np.minimum.reduceat(values, indptr[:-1][nonempty])
    return out


def segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment sum of ``values[indptr[i]:indptr[i+1]]`` (0 when empty)."""
    n = indptr.size - 1
    out = np.zeros(n, dtype=values.dtype)
    if values.size == 0 or n == 0:
        return out
    nonempty = indptr[:-1] < indptr[1:]
    out[nonempty] = np.add.reduceat(values, indptr[:-1][nonempty])
    return out


# ---------------------------------------------------------------------- #
# 2-D (seed-block) segment reductions
#
# The batched seed-search engine evaluates a whole block of hash seeds at
# once, producing ``(S, T)`` value grids whose columns are grouped by the
# same CSR-style ``indptr`` as the 1-D kernels above.  ``SegmentTable``
# reduces every seed row on its own over the arcs, so row ``i`` of each
# 2-D reduction is bit-identical to the 1-D kernel applied to row ``i``.
# ---------------------------------------------------------------------- #


def group_order_indptr(
    groups: np.ndarray, num_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort order plus CSR offsets for an arbitrary grouping array.

    Returns ``(order, indptr)`` with ``groups[order]`` sorted ascending and
    ``order[indptr[i]:indptr[i+1]]`` the positions of group ``i`` in input
    order -- the precomputation that turns per-group scatter reductions
    (``np.minimum.at`` / ``np.add.at`` / ``np.logical_or.at``) into
    block reductions along the seed axis.
    """
    if groups.size == 0 or bool(np.all(groups[1:] >= groups[:-1])):
        order = np.arange(groups.size, dtype=np.int64)  # already sorted
    else:
        order = np.argsort(groups, kind="stable")
    counts = np.bincount(groups, minlength=num_groups)
    indptr = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return order, indptr


class SegmentTable:
    """Per-segment min / any over the columns of ``(S, width)`` seed blocks.

    Segment ``i`` reads ``cols[indptr[i]:indptr[i+1]]``.  Each seed row is
    gathered at the arcs and reduced at the non-empty segment starts, as
    :func:`segment_min` does, so a row costs its arcs whatever the degree
    skew.  Empty segments yield ``fill`` / False; row ``s`` equals the
    scalar per-seed reduction bit-for-bit.
    """

    def __init__(self, cols: np.ndarray, indptr: np.ndarray) -> None:
        self.cols = cols
        self._nonempty = indptr[:-1] < indptr[1:]
        self._starts = indptr[:-1][self._nonempty]

    @property
    def cells(self) -> int:
        """Values one seed row gathers: the arc count."""
        return self.cols.size

    def _reduce(self, ufunc: np.ufunc, values: np.ndarray, fill) -> np.ndarray:
        out = np.full((values.shape[0], self._nonempty.size), fill, dtype=values.dtype)
        if self._starts.size:
            for row, vals in zip(out, values):
                row[self._nonempty] = ufunc.reduceat(vals[self.cols], self._starts)
        return out

    def min(self, values: np.ndarray, fill) -> np.ndarray:
        return self._reduce(np.minimum, values, fill)

    def any(self, mask: np.ndarray) -> np.ndarray:
        return self._reduce(np.logical_or, mask, False)


def arcs_toward(g: Graph, src_mask: np.ndarray, dst_mask: np.ndarray):
    """Directed arcs ``v -> u`` with ``src_mask[v]`` and ``dst_mask[u]``.

    Returns ``(groups, units)``: the ``v`` and ``u`` arrays, forward edge
    orientations first, then backward.
    """
    eu, ev = g.edges_u, g.edges_v
    fwd = src_mask[eu] & dst_mask[ev]
    bwd = src_mask[ev] & dst_mask[eu]
    groups = np.concatenate([eu[fwd], ev[bwd]])
    units = np.concatenate([ev[fwd], eu[bwd]])
    return groups, units


def neighbor_min(
    g: Graph, values: np.ndarray, *, exclude: np.ndarray | None = None, fill=None
) -> np.ndarray:
    """Per-node minimum of ``values[u]`` over neighbours ``u``.

    ``exclude`` masks nodes whose values are ignored (treated as ``fill``)
    -- the Luby solvers pass the removed-node mask so dead neighbours never
    win a local minimum.  ``fill`` defaults to the dtype's max (or ``inf``
    for floats) and is returned for nodes with no (surviving) neighbour.
    """
    if fill is None:
        fill = (
            np.inf
            if np.issubdtype(values.dtype, np.floating)
            else np.iinfo(values.dtype).max
        )
    vals = values if exclude is None else np.where(exclude, fill, values)
    return segment_min(vals[g.indices], g.indptr, fill)


def alive_edge_degrees(g: Graph, alive_edges: np.ndarray) -> np.ndarray:
    """int64[n]: per-node count of incident edges with ``alive_edges`` set.

    The residual-graph degree ``d_{E'}(v)`` without rebuilding the residual
    graph; equals ``g.remove_vertices(...).degrees()`` when ``alive_edges``
    is the surviving-edge mask of that removal.
    """
    arc_alive = np.asarray(alive_edges, dtype=bool)[g.arc_edge_ids]
    return segment_sum(arc_alive.astype(np.int64), g.indptr)


def alive_arc_select(
    g: Graph, alive_edges: np.ndarray, nodes: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Edge id of each node's ``offsets[i]``-th surviving incident edge.

    ``nodes`` must have ``offsets[i] < alive_degree(nodes[i])``.  Arc order
    is CSR order restricted to surviving edges, which matches the arc order
    of the rebuilt residual graph -- so proposal-style solvers (Israeli-
    Itai) pick the same edge for the same RNG draw as on a rebuilt graph.
    """
    arc_alive = np.asarray(alive_edges, dtype=bool)[g.arc_edge_ids]
    alive_pos = np.nonzero(arc_alive)[0]
    counts = segment_sum(arc_alive.astype(np.int64), g.indptr)
    new_indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(counts, out=new_indptr[1:])
    return g.arc_edge_ids[alive_pos[new_indptr[nodes] + offsets]]
