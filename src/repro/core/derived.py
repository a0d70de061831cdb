"""Derived problems: classical corollaries of deterministic MIS / matching.

The paper's introduction motivates MIS and maximal matching as *benchmark*
primitives precisely because other problems reduce to them.  This module
packages the two standard reductions, inheriting the deterministic MPC
round/space guarantees of Theorem 1:

* **Minimum vertex cover, 2-approximation** — the endpoints of any maximal
  matching form a vertex cover of size at most twice the optimum (each
  matched edge needs one cover vertex, and OPT must pick at least one
  endpoint per matched edge since the matching is a set of disjoint edges).

* **(Δ+1)-coloring** — the classical reduction (Luby [44], Linial [42]): an
  MIS of the product graph ``G × K_{Δ+1}`` (nodes ``(v, c)``, edges between
  copies of adjacent nodes with the same color and between all copies of
  the same node) assigns every node exactly one color, and adjacent nodes
  never share one.  The product graph has ``n (Δ+1)`` nodes and
  ``m (Δ+1) + n C(Δ+1, 2)`` edges; its maximum degree is ``2 Δ``, so for a
  low-degree input the Section-5 algorithm applies to the product as well.

* **2-ruling set** — one MIS call on the square graph ``G²`` (edges between
  vertices at distance ``<= 2``; cf. Pai–Pemmaraju's deterministic ruling
  sets in MPC): an MIS of ``G²`` is independent at distance ``>= 3`` in
  ``G`` and, by maximality in ``G²``, leaves every vertex within distance
  2 of the set.  ``G²`` has maximum degree ``<= Δ²``, so the low-degree
  path applies whenever ``Δ² `` fits the Section-5 regime — exactly the
  seed-compression argument the paper makes for distance-2 coloring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph
from ..graphs.power import ball_sizes, square_graph
from .api import lowdeg_path_rule, maximal_independent_set, maximal_matching
from .lowdeg import lowdeg_mis
from .mis import deterministic_mis
from .params import Params
from .records import MISResult, MatchingResult

__all__ = [
    "ColoringViaMISResult",
    "RulingSetResult",
    "VertexCoverResult",
    "deterministic_coloring",
    "deterministic_ruling_set",
    "deterministic_vertex_cover",
    "is_ruling_set",
]


@dataclass(frozen=True)
class VertexCoverResult:
    """A 2-approximate minimum vertex cover (Theorem 1 costs)."""

    cover: np.ndarray  # sorted node ids
    matching: MatchingResult  # the underlying maximal matching

    @property
    def size(self) -> int:
        return int(self.cover.size)

    @property
    def rounds(self) -> int:
        return self.matching.rounds

    def lower_bound(self) -> int:
        """|M| <= OPT: certified approximation ratio |cover| / |M| <= 2."""
        return int(self.matching.pairs.shape[0])


def deterministic_vertex_cover(
    graph: Graph, *, eps: float = 0.5, params: Params | None = None
) -> VertexCoverResult:
    """2-approximate minimum vertex cover via deterministic maximal matching."""
    mm = maximal_matching(graph, eps=eps, params=params)
    cover = np.unique(mm.pairs.ravel()) if mm.pairs.size else np.empty(
        0, dtype=np.int64
    )
    return VertexCoverResult(cover=cover, matching=mm)


def is_vertex_cover(g: Graph, cover: np.ndarray) -> bool:
    """Every edge has at least one endpoint in ``cover``."""
    mask = np.zeros(g.n, dtype=bool)
    if np.asarray(cover).size:
        mask[np.asarray(cover, dtype=np.int64)] = True
    if g.m == 0:
        return True
    return bool(np.all(mask[g.edges_u] | mask[g.edges_v]))


@dataclass(frozen=True)
class RulingSetResult:
    """A 2-ruling set: pairwise distance >= 3, every vertex within 2 hops."""

    ruling_set: np.ndarray  # sorted node ids
    mis: MISResult  # the MIS run on the square graph
    square_n: int
    square_m: int

    @property
    def size(self) -> int:
        return int(self.ruling_set.size)

    @property
    def rounds(self) -> int:
        return self.mis.rounds


def deterministic_ruling_set(
    graph: Graph, *, eps: float = 0.5, params: Params | None = None
) -> RulingSetResult:
    """2-ruling set via one deterministic MIS call on ``G²``.

    An independent set of ``G²`` has pairwise ``G``-distance ``>= 3``
    (any two vertices at distance ``<= 2`` are ``G²``-adjacent), and its
    maximality means every vertex is ``G²``-adjacent to the set, i.e.
    within ``G``-distance 2 — the (3, 2)-ruling-set guarantee.
    """
    sq = square_graph(graph)
    mis = maximal_independent_set(sq, eps=eps, params=params)
    return RulingSetResult(
        ruling_set=np.sort(mis.independent_set.astype(np.int64)),
        mis=mis,
        square_n=sq.n,
        square_m=sq.m,
    )


def is_ruling_set(g: Graph, nodes: np.ndarray) -> bool:
    """Verify the 2-ruling-set contract against ``g`` directly.

    Checks (a) no two chosen vertices are within distance 2 and (b) every
    vertex reaches a chosen one in at most 2 hops.
    """
    chosen = np.zeros(g.n, dtype=bool)
    sel = np.asarray(nodes, dtype=np.int64)
    if sel.size:
        chosen[sel] = True
    # within1[v]: v is chosen or adjacent to a chosen vertex
    chosen_nbrs = g.degrees_toward(chosen)
    within1 = chosen | (chosen_nbrs > 0)
    within2 = within1 | (g.degrees_toward(within1) > 0)
    if not bool(within2.all()):
        return False
    # Independence at distance >= 3.  A chosen pair at distance 1 is an
    # edge with both endpoints chosen; a chosen pair at distance 2 shares a
    # middle vertex, which then has two distinct chosen neighbours.  So the
    # set is distance->=3 independent iff no chosen vertex has a chosen
    # neighbour and no vertex counts two chosen neighbours.
    return not bool(np.any(chosen & (chosen_nbrs > 0)) or np.any(chosen_nbrs >= 2))


@dataclass(frozen=True)
class ColoringViaMISResult:
    """A proper (Δ+1)-coloring obtained through the MIS reduction."""

    colors: np.ndarray  # int64[n] in [0, Delta + 1)
    num_colors: int
    mis: MISResult  # the MIS run on the product graph
    product_n: int
    product_m: int

    @property
    def rounds(self) -> int:
        return self.mis.rounds


def _product_graph(g: Graph, k: int) -> Graph:
    """``G x K_k``: node ``(v, c)`` is id ``v * k + c``.

    Edges: {(v,c),(v,c')} for c != c' (each node picks one color) and
    {(u,c),(v,c)} for {u,v} in E (adjacent nodes cannot share a color).

    The five arrays are written in closed form, equal to what
    ``Graph.from_edges`` builds and with no sort.  Row ``(v, c)`` is
    ``[v k + c' for c' > c] ++ [w k + c for w in G's row v] ++
    [v k + c' for c' < c]``: ids ascending above the node, then below it,
    because G's row lists the upper neighbours before the lower ones.  The
    canonical edges come in groups ``(v, c)`` by id, each the clique tail
    ``c' > c`` and then ``w k + c`` for G's upper neighbours ``w``, so group
    ``(v, c)`` holds ``k - 1 - c + up(v)`` edges and starts at
    ``C(k, 2) v + k first(v) + c (k - 1) - C(c, 2) + c up(v)``, with
    ``up(v)`` the number of ``v``'s upper neighbours and ``first(v)`` G's
    first edge id whose lower endpoint is ``v``.
    """
    n, m = g.n, g.m
    nodes = np.arange(n, dtype=np.int64)
    deg = np.diff(g.indptr)
    up = np.bincount(g.edges_u, minlength=n)
    first = np.cumsum(up) - up
    pairs = k * (k - 1) // 2
    m_prod = n * pairs + k * m
    # Every row of v has k - 1 + deg v arcs.
    indptr = np.zeros(n * k + 1, dtype=np.int64)
    np.cumsum(np.repeat(k - 1 + deg, k), out=indptr[1:])
    indices = np.empty(2 * m_prod, dtype=np.int64)
    arc_edge_ids = np.empty(2 * m_prod, dtype=np.int64)
    edges_v = np.empty(m_prod, dtype=np.int64)

    def row_start(x: np.ndarray, c: np.ndarray) -> np.ndarray:
        """First arc of row ``(x, c)``: nodes ``x`` down, colors ``c`` across."""
        out = c * (k - 1 + deg[x])[:, None]
        out += indptr[x * k][:, None]
        return out

    def group_start(x: np.ndarray, c: np.ndarray) -> np.ndarray:
        """First edge id of group ``(x, c)``, shaped as in ``row_start``."""
        out = c * up[x][:, None]
        out += c * (k - 1) - c * (c - 1) // 2
        out += (x * pairs + k * first[x])[:, None]
        return out

    # Clique edges {(v, a), (v, b)}, a < b: the upper arc sits in row (v, a)
    # at offset b - a - 1, the lower arc in row (v, b) after its cross arcs.
    a, b = (t.astype(np.int64) for t in np.triu_indices(k, k=1))
    eid = group_start(nodes, a)
    eid += b - a - 1
    copy = nodes[:, None] * k
    pos = row_start(nodes, a)
    pos += b - a - 1
    indices[pos] = copy + b
    arc_edge_ids[pos] = eid
    edges_v[eid] = copy + b
    pos = row_start(nodes, b)
    pos += k - 1 - b + a
    pos += deg[:, None]
    indices[pos] = copy + a
    arc_edge_ids[pos] = eid
    del eid, copy, pos

    # Cross edges {(u, c), (w, c)}, u < w: one arc per G arc and color, at
    # the arc's offset j in G's row after the k - 1 - c clique-tail arcs.
    c = np.arange(k, dtype=np.int64)
    src = np.repeat(nodes, deg)
    j = np.arange(src.size, dtype=np.int64) - g.indptr[src]
    e = g.arc_edge_ids
    lo = g.edges_u[e]
    pos = row_start(src, c)
    pos += (k - 1 - c) + j[:, None]
    eid = group_start(lo, c)
    eid += (k - 1 - c) + (e - first[lo])[:, None]
    dst = g.indices[:, None] * k + c
    indices[pos] = dst
    arc_edge_ids[pos] = eid
    upper = src == lo
    edges_v[eid[upper]] = dst[upper]

    edges_u = np.repeat(
        np.arange(n * k, dtype=np.int64), ((k - 1 - c) + up[:, None]).ravel()
    )
    return Graph(
        n=n * k,
        edges_u=edges_u,
        edges_v=edges_v,
        indptr=indptr,
        indices=indices,
        arc_edge_ids=arc_edge_ids,
    )


def _product_ball2_sizes(g: Graph, k: int) -> np.ndarray:
    """``ball_sizes(G x K_k, 2)`` from ``G``'s own r = 2 count.

    ``dist((v, c), (w, c')) = dist_G(v, w) + [c != c']``, so the ball of
    ``(v, c)`` holds ``(w, c)`` for ``1 <= dist_G(v, w) <= 2`` and
    ``(w, c')``, ``c' != c``, for ``w`` in ``N[v]``: the same size for
    every color.
    """
    sizes = ball_sizes(g, 2) + (k - 1) * (1 + g.degrees())
    return np.repeat(sizes, k)


def deterministic_coloring(
    graph: Graph,
    *,
    eps: float = 0.5,
    params: Params | None = None,
    num_colors: int | None = None,
) -> ColoringViaMISResult:
    """Proper coloring with ``Delta + 1`` colors via MIS on ``G x K_{Δ+1}``.

    An MIS of the product holds exactly one copy of every node.  At most
    one, since a node's copies form a clique.  At least one, by
    pigeonhole: if no copy of ``v`` were chosen, maximality would give each
    of the ``Delta + 1`` copies ``(v, c)`` a chosen neighbour, which must be
    a same-color copy ``(w, c)`` of a neighbour ``w``; each of ``v``'s
    ``<= Delta`` neighbours has at most one chosen copy, so at most
    ``Delta`` colors are covered.  Adjacent nodes never share a color, as
    ``(u, c)`` and ``(w, c)`` are adjacent.

    On the Section-5 path the product's r = 2 ball sizes come from
    ``G``'s own count (:func:`_product_ball2_sizes`).  The product's size
    and maximum degree (``Delta + k - 1``) have closed forms, so the path is
    chosen before the product is built, and the product goes to the solver
    with no reference kept here: ``lowdeg_mis`` drops it once its
    preprocessing ends.
    """
    delta = graph.max_degree()
    k = num_colors if num_colors is not None else delta + 1
    if k < 1:
        k = 1
    params = params or Params(eps=eps)
    product_n = graph.n * k
    product_m = graph.n * (k * (k - 1) // 2) + k * graph.m
    if lowdeg_path_rule(product_n, delta + k - 1 if graph.n else 0, params):
        mis = lowdeg_mis(
            _product_graph(graph, k), params, ball2_sizes=_product_ball2_sizes(graph, k)
        )
    else:
        mis = deterministic_mis(_product_graph(graph, k), params)
    colors = np.full(graph.n, -1, dtype=np.int64)
    v, c = np.divmod(mis.independent_set, k)
    colors[v] = c
    if np.any(colors < 0):
        # With k = Delta + 1 this cannot happen (see above); guard for a
        # caller-supplied smaller k.
        raise ValueError(
            f"{int((colors < 0).sum())} nodes uncolored; "
            f"k={k} colors insufficient for this graph"
        )
    return ColoringViaMISResult(
        colors=colors,
        num_colors=k,
        mis=mis,
        product_n=product_n,
        product_m=product_m,
    )
