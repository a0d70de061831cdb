"""Deterministic node sparsification (paper Section 4.2).

MIS sparsifies the *node* set ``Q_0 = C_{i*}`` rather than an edge set --
edges between candidate independent-set nodes must survive so that ``I`` is
genuinely independent.  Stage ``j`` subsamples ``Q_{j-1}`` at rate
``n^{-delta}`` by hashing node ids, derandomized so that:

* every type-Q machine (holding a chunk of some ``v in Q_{j-1}``'s
  ``Q_{j-1}``-neighbours) sees at most ``mu_x + lambda_x`` sampled
  neighbours  -> invariant (i): ``d_{Q_j}(v) <= (1+o(1)) n^{-j delta} d(v)``;
* every type-B machine (holding a chunk of some ``v in B``'s
  ``Q_{j-1}``-neighbours, weighted ``w_u = n^{(i-1)delta} / d(u) in (0,1]``)
  retains weight at least ``mu_x - lambda_x``  -> invariant (ii):
  ``sum_{u in Q_j ~ v} 1/d(u) >= (delta - o(1)) / (3 n^{j delta})``.

The scaling by ``n^{(i-1)delta}`` mirrors the paper's proof (variables
``Z_v = n^{(i-1)delta}/d(v) * 1{v in Q_h}`` take values in [0, 1] because
every ``u in Q`` has ``d(u) >= n^{(i-1)delta}``).  The stage loop is
:func:`repro.core.stage.sparsify`; this module is its node view.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..graphs.kernels import arcs_toward
from ..mpc.context import MPCContext
from .good_nodes import GoodNodesMIS
from .params import Params
from .stage import SparsifyResult, sparsify

__all__ = ["sparsify_nodes"]


def sparsify_nodes(
    g: Graph,
    good: GoodNodesMIS,
    params: Params,
    ctx: MPCContext,
    fidelity: list[str],
) -> SparsifyResult:
    """Compute ``Q' ⊆ Q_0`` with internal degrees ``O(n^{4 delta})``."""
    deg = g.degrees().astype(np.float64)
    inv_deg = np.zeros(g.n, dtype=np.float64)
    nz = deg > 0
    inv_deg[nz] = 1.0 / deg[nz]
    # Weight scale: every u in Q = C_i has d(u) >= n^{(i-1) delta}.
    scale = params.n_pow(g.n, float(good.i_star - 1))
    weights_of_node = np.minimum(scale * inv_deg, 1.0)

    def machines(q_mask: np.ndarray) -> tuple:
        groups_b, units_b = arcs_toward(g, good.b_mask, q_mask)
        return (
            *arcs_toward(g, q_mask, q_mask),
            groups_b, units_b, weights_of_node[units_b],
        )

    return sparsify(
        g, good.q0_mask, good.i_star - 4,
        kind="nodes", degree_type="Q", degree_lower=False,
        machines=machines, degrees=g.degrees_toward,
        # sum_{u in Q_0 ~ v} 1/d(u) per B node.
        retention0=np.where(good.b_mask, good.inv_deg_toward_q0, 0.0), scale=scale,
        params=params, ctx=ctx, fidelity=fidelity,
    )
