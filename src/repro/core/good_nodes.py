"""Good-node selection: sets ``X``/``A``, degree classes ``C_i``, ``B_i``.

Matching (Section 3): ``X`` is the set of nodes ``v`` with at least
``d(v)/3`` neighbours ``u`` of degree ``d(u) <= d(v)``; Lemma 3 gives
``sum_{v in X} d(v) >= |E| / 2``.  Nodes are split into degree classes
``C_i = {v : n^{(i-1)delta} <= d(v) < n^{i delta}}`` and ``B_i = C_i ∩ X``;
Corollary 8 picks a class with ``sum_{v in B_i} d(v) >= delta |E| / 2``
(we take the argmax class).  The per-node edge sets
``X(v) = {{u,v} in E : d(u) <= d(v)}`` seed the sparsification.

MIS (Section 4): ``A = {v : sum_{u ~ v} 1/d(u) >= 1/3}`` (Corollary 15:
``sum_{v in A} d(v) >= |E| / 2`` since ``X ⊆ A``), and
``B_i = {v : sum_{u in C_i ~ v} 1/d(u) >= delta/3}``; Corollary 16 again
guarantees a class of weight ``>= delta |E| / 2``.  Here ``Q_0 = C_{i*}`` is
the node set to sparsify.

Implementation notes: everything is whole-array numpy over the CSR edge
arrays; isolated vertices never enter any class.  The MPC cost is a constant
number of Lemma-4 primitives (degree counting, neighbourhood aggregation,
class-weight aggregation) charged by the caller.

The integer accounting (low-degree neighbour counts) runs on ``bincount``
kernels.  The MIS side's class-weighted neighbourhood sums (``sum of
1/d(u)`` per class) are one sparse mat-mat product through the graph's
cached scipy CSR adjacency.  The ``np.add.at`` class sums in
``tests/test_kernels_equivalence.py`` are its reference: float
accumulation order differs between the two at the 1e-16 level, far inside
the 1e-12 threshold guards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph
from .params import Params

__all__ = [
    "GoodNodesMatching",
    "GoodNodesMIS",
    "degree_class_of",
    "good_nodes_matching",
    "good_nodes_mis",
]


def degree_class_of(degrees: np.ndarray, n: int, delta: float) -> np.ndarray:
    """int64[n] class index in ``[1, 1/delta]`` (0 for isolated vertices).

    ``C_i`` contains degrees in ``[n^{(i-1) delta}, n^{i delta})``.
    """
    d = np.asarray(degrees, dtype=np.float64)
    base = max(n, 2)
    cls = np.zeros(d.size, dtype=np.int64)
    pos = d > 0
    # i - 1 = floor(log_n(d) / delta); the 1e-9 guards exact powers.
    with np.errstate(divide="ignore"):
        exact = np.log(d[pos]) / (delta * np.log(base))
    cls[pos] = np.floor(exact + 1e-9).astype(np.int64) + 1
    num_classes = max(1, int(np.ceil(1.0 / delta - 1e-9)))
    np.clip(cls, 0, num_classes, out=cls)
    return cls


@dataclass(frozen=True)
class GoodNodesMatching:
    """Output of the Section-3 good-node computation."""

    i_star: int  # chosen degree class (1-based)
    b_mask: np.ndarray  # bool[n]: v in B = C_{i*} ∩ X
    x_mask: np.ndarray  # bool[n]: v in X
    e0_mask: np.ndarray  # bool[m]: edge in E_0 = union of X(v), v in B
    in_x_of_u: np.ndarray  # bool[m]: edge counts toward X(edges_u[e])
    in_x_of_v: np.ndarray  # bool[m]: edge counts toward X(edges_v[e])
    weight_b: float  # sum_{v in B} d(v)
    class_of: np.ndarray  # int64[n]

    @property
    def num_good(self) -> int:
        return int(self.b_mask.sum())


def good_nodes_matching(g: Graph, params: Params) -> GoodNodesMatching:
    """Compute ``i*``, ``B`` and ``E_0`` for the matching algorithm."""
    deg = g.degrees()
    n, delta = g.n, params.delta_value
    # |{u ~ v : d(u) <= d(v)}| per v, vectorised over edges (exact int64
    # bincounts; no scatter `.at` calls on the hot path).
    low_count = np.zeros(n, dtype=np.int64)
    if g.m:
        du = deg[g.edges_u]
        dv = deg[g.edges_v]
        low_count += np.bincount(g.edges_u[dv <= du], minlength=n)
        low_count += np.bincount(g.edges_v[du <= dv], minlength=n)
    x_mask = (3 * low_count >= deg) & (deg > 0)

    class_of = degree_class_of(deg, n, delta)
    num_classes = max(1, int(np.ceil(1.0 / delta - 1e-9)))
    in_b_any = x_mask  # B_i = C_i ∩ X partitions X by class
    weights = np.bincount(
        class_of[in_b_any],
        weights=deg[in_b_any].astype(np.float64),
        minlength=num_classes + 1,
    )
    i_star = int(np.argmax(weights[1:])) + 1 if weights[1:].size else 1
    b_mask = x_mask & (class_of == i_star)

    if g.m:
        du = deg[g.edges_u]
        dv = deg[g.edges_v]
        in_x_of_u = b_mask[g.edges_u] & (dv <= du)
        in_x_of_v = b_mask[g.edges_v] & (du <= dv)
        e0_mask = in_x_of_u | in_x_of_v
    else:
        in_x_of_u = np.zeros(0, dtype=bool)
        in_x_of_v = np.zeros(0, dtype=bool)
        e0_mask = np.zeros(0, dtype=bool)

    return GoodNodesMatching(
        i_star=i_star,
        b_mask=b_mask,
        x_mask=x_mask,
        e0_mask=e0_mask,
        in_x_of_u=in_x_of_u,
        in_x_of_v=in_x_of_v,
        weight_b=float(deg[b_mask].sum()),
        class_of=class_of,
    )


@dataclass(frozen=True)
class GoodNodesMIS:
    """Output of the Section-4 good-node computation."""

    i_star: int
    b_mask: np.ndarray  # bool[n]: v in B_{i*}
    a_mask: np.ndarray  # bool[n]: v in A
    q0_mask: np.ndarray  # bool[n]: v in Q_0 = C_{i*}
    weight_b: float  # sum_{v in B} d(v)
    class_of: np.ndarray  # int64[n]
    inv_deg_toward_q0: np.ndarray  # float64[n]: sum_{u in Q0 ~ v} 1/d(u)

    @property
    def num_good(self) -> int:
        return int(self.b_mask.sum())


def good_nodes_mis(g: Graph, params: Params) -> GoodNodesMIS:
    """Compute ``i*``, ``B``, ``Q_0`` for the MIS algorithm (Section 4.1)."""
    deg = g.degrees()
    n, delta = g.n, params.delta_value
    num_classes = max(1, int(np.ceil(1.0 / delta - 1e-9)))
    class_of = degree_class_of(deg, n, delta)

    inv_deg = np.zeros(n, dtype=np.float64)
    nz = deg > 0
    inv_deg[nz] = 1.0 / deg[nz]

    # acc[v, i] = sum of 1/d(u) over neighbours u of v in class i: one
    # sparse mat-mat product against the class-indicator weights
    # W[u, i] = 1/d(u) iff class_of[u] == i.
    w = np.zeros((n, num_classes + 1), dtype=np.float64)
    w[np.arange(n), class_of] = inv_deg
    acc = np.asarray(g.adjacency_csr() @ w)
    total = acc.sum(axis=1)
    a_mask = (total >= 1.0 / 3.0 - 1e-12) & (deg > 0)

    b_masks = acc[:, 1:] >= (delta / 3.0 - 1e-12)  # (n, num_classes)
    b_masks &= (deg > 0)[:, None]
    weights = (b_masks * deg[:, None].astype(np.float64)).sum(axis=0)
    i_star = int(np.argmax(weights)) + 1 if weights.size else 1
    b_mask = b_masks[:, i_star - 1]
    q0_mask = (class_of == i_star) & (deg > 0)

    return GoodNodesMIS(
        i_star=i_star,
        b_mask=b_mask,
        a_mask=a_mask,
        q0_mask=q0_mask,
        weight_b=float(deg[b_mask].sum()),
        class_of=class_of,
        inv_deg_toward_q0=acc[:, i_star],
    )
