"""Vectorized CSR solver kernels shared by the baselines and simulators.

The per-iteration primitives every Luby-style solver needs -- neighbour
minima, alive-edge degrees, "k-th live incident edge" lookups -- and the
seed-block reductions of the batched seed search are expressed here as
whole-array operations over a :class:`Graph`'s CSR arrays:
``np.minimum.reduceat`` / ``np.add.reduceat`` over the arc arrays (an order
of magnitude faster than ``np.minimum.at`` scatters on large inputs), and
padded gather tables for blocks of seeds.

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
# same CSR-style ``indptr`` as the 1-D kernels above.  ``reduceat`` along
# ``axis=1`` reduces every seed row independently in one pass, so row ``i``
# of each 2-D kernel is bit-identical to the 1-D kernel applied to row ``i``.
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


#: Padded-table kernels are used while the padded grid is at most this many
#: times the number of arcs; beyond that (high degree skew) the per-row
#: scatter fallback wins on memory traffic.
PAD_FACTOR = 4


def _padded_table(
    cols: np.ndarray, indptr: np.ndarray, sentinel: int
) -> np.ndarray | None:
    """(M, w_max) table of ``cols`` positions per segment, or None if too wide.

    Row ``i`` lists ``cols[indptr[i]:indptr[i+1]]`` padded with ``sentinel``.
    Turning ragged segments into a fixed-width gather lets per-segment
    min/any reductions run as one contiguous ``.min(axis=2)`` /
    ``.any(axis=2)`` over the seed block -- the layout numpy actually
    vectorises, unlike ``reduceat`` with many short segments.
    """
    m = indptr.size - 1
    sizes = np.diff(indptr)
    w_max = int(sizes.max(initial=0))
    if w_max == 0 or w_max * m > PAD_FACTOR * max(cols.size, 1):
        return None
    table = np.full((m, w_max), sentinel, dtype=np.int64)
    # Arc a of row i lands in flat cell i * w_max + (a - indptr[i]).
    flat = np.arange(cols.size, dtype=np.int64)
    flat += np.repeat(np.arange(m, dtype=np.int64) * w_max - indptr[:-1], sizes)
    table.ravel()[flat] = cols
    return table


class SegmentTable:
    """Per-segment min / any over the columns of ``(S, width)`` seed blocks.

    Segment ``i`` reads ``cols[indptr[i]:indptr[i+1]]``.  One table serves
    both reductions, so a Luby phase that takes neighbour minima and then
    the "any neighbour joined" flag over the same adjacency gathers through
    one padded table.  When padding would exceed :data:`PAD_FACTOR` times
    the arc count, the min falls back to a per-row scatter and the any to
    a prefix-count.  Empty segments yield ``fill`` / False; row ``s`` equals
    the scalar per-seed reduction bit-for-bit.
    """

    def __init__(self, cols: np.ndarray, indptr: np.ndarray, width: int) -> None:
        self.cols = cols
        self.indptr = indptr
        self.table = _padded_table(cols, indptr, width)

    @property
    def cells(self) -> int:
        """Values one seed row gathers: padded table cells, else arcs."""
        return self.cols.size if self.table is None else self.table.size

    def min(self, values: np.ndarray, fill) -> np.ndarray:
        s = values.shape[0]
        if self.table is not None:
            ext = np.concatenate(
                [values, np.full((s, 1), fill, dtype=values.dtype)], axis=1
            )
            return ext[:, self.table].min(axis=2)
        m = self.indptr.size - 1
        owners = np.repeat(np.arange(m, dtype=np.int64), np.diff(self.indptr))
        out = np.full((s, m), fill, dtype=values.dtype)
        gathered = values[:, self.cols]
        for row in range(s):
            np.minimum.at(out[row], owners, gathered[row])
        return out

    def any(self, mask: np.ndarray) -> np.ndarray:
        if self.table is not None:
            ext = np.concatenate(
                [mask, np.zeros((mask.shape[0], 1), dtype=bool)], axis=1
            )
            return ext[:, self.table].any(axis=2)
        # Prefix counts: cum[:, j] is the number of True among the first j
        # arcs, so a segment holds one iff the count rises across it.
        cum = np.zeros((mask.shape[0], self.cols.size + 1), dtype=np.int32)
        np.cumsum(mask[:, self.cols], axis=1, out=cum[:, 1:])
        return cum[:, self.indptr[1:]] > cum[:, self.indptr[:-1]]


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
