"""Deterministic edge sparsification (paper Section 3.2).

Starting from ``E_0 = union_{v in B} X(v)``, the procedure runs ``i - 4``
stages (no stages when ``i <= 4``: then ``E* = E_0`` already has degrees
``<= n^{4 delta}``).  Stage ``j`` subsamples ``E_{j-1}`` at rate
``n^{-delta}`` using a c-wise independent hash on *edge ids*, derandomized so
that every type-A and type-B machine is "good", which by the Lemma 10/11
algebra yields the stage invariants:

  (i)  ``d_{E_j}(v) <= sum over v's type-A machines of (mu_x + lambda_x)``
       for every node v (degree control), and
  (ii) ``|X(v) ∩ E_j| >= sum over v's type-B machines of (mu_x - lambda_x)``
       for every ``v in B`` (weight retention),

with ``mu_x = p_real * e_x``.  The stage loop is :func:`repro.core.stage.sparsify`;
this module is its edge view: type-A machines hold every node's incident
``E_{j-1}`` edges, type-B machines ``X(v) ∩ E_{j-1}`` for ``v in B``.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..mpc.context import MPCContext
from .good_nodes import GoodNodesMatching
from .params import Params
from .stage import SparsifyResult, sparsify

__all__ = ["sparsify_edges"]


def sparsify_edges(
    g: Graph,
    good: GoodNodesMatching,
    params: Params,
    ctx: MPCContext,
    fidelity: list[str],
) -> SparsifyResult:
    """Compute ``E* ⊆ E_0`` with per-node degree ``O(n^{4 delta})``."""
    x0_u, x0_v = good.in_x_of_u, good.in_x_of_v

    def machines(e_mask: np.ndarray) -> tuple:
        eids = np.flatnonzero(e_mask)
        eid_bu = np.flatnonzero(x0_u & e_mask)
        eid_bv = np.flatnonzero(x0_v & e_mask)
        return (
            np.concatenate([g.edges_u[eids], g.edges_v[eids]]),
            np.concatenate([eids, eids]),
            np.concatenate([g.edges_u[eid_bu], g.edges_v[eid_bv]]),
            np.concatenate([eid_bu, eid_bv]),
            None,
        )

    # |X(v)| per B-node at stage 0.
    x0_count = np.bincount(
        np.concatenate([g.edges_u[x0_u], g.edges_v[x0_v]]), minlength=g.n
    ).astype(np.float64)
    return sparsify(
        g, good.e0_mask, good.i_star - 4,
        kind="edges", degree_type="A", degree_lower=True,
        machines=machines, degrees=g.degrees_within,
        retention0=x0_count, scale=1.0,
        params=params, ctx=ctx, fidelity=fidelity,
    )
