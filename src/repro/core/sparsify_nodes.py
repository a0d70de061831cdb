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
every ``u in Q`` has ``d(u) >= n^{(i-1)delta}``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph
from ..graphs.kernels import arcs_toward
from ..hashing.kwise import make_family
from ..mpc.context import MPCContext
from ..mpc.partition import chunk_items_by_group
from .good_nodes import GoodNodesMIS
from .params import Params
from .records import StageRecord
from .stage import MachineGroupSpec, run_stage_seed_search

__all__ = ["NodeSparsifyResult", "sparsify_nodes"]


@dataclass(frozen=True)
class NodeSparsifyResult:
    """``Q'`` plus the per-stage trace."""

    q_prime_mask: np.ndarray  # bool[n]
    stages: tuple[StageRecord, ...]
    num_stages: int


def sparsify_nodes(
    g: Graph,
    good: GoodNodesMIS,
    params: Params,
    ctx: MPCContext,
    fidelity: list[str],
) -> NodeSparsifyResult:
    """Compute ``Q' ⊆ Q_0`` with internal degrees ``O(n^{4 delta})``."""
    i = good.i_star
    q_mask = good.q0_mask.copy()
    num_stages = max(0, i - 4)
    if num_stages == 0 or q_mask.sum() == 0:
        return NodeSparsifyResult(
            q_prime_mask=q_mask, stages=tuple(), num_stages=0
        )

    family = make_family(universe=max(g.n, 2), k=params.c, min_q=params.min_q)
    prob = params.sample_prob(g.n)
    chunk = params.chunk_size(g.n)
    deg = g.degrees().astype(np.float64)
    inv_deg = np.zeros(g.n, dtype=np.float64)
    nz = deg > 0
    inv_deg[nz] = 1.0 / deg[nz]
    # Weight scale: every u in Q = C_i has d(u) >= n^{(i-1) delta}.
    scale = params.n_pow(g.n, float(i - 1))
    weights_of_node = np.minimum(scale * inv_deg, 1.0)

    # Stage-0 references for decay reporting.
    deg_q0 = g.degrees_toward(good.q0_mask).astype(np.float64)
    w_q0 = good.inv_deg_toward_q0.copy()

    stages: list[StageRecord] = []
    for j in range(1, num_stages + 1):
        items_before = int(q_mask.sum())
        if items_before == 0:
            fidelity.append(f"node sparsification stage {j}: Q emptied; stopping")
            break

        groups_q, units_q = arcs_toward(g, q_mask, q_mask)
        grouping_q = chunk_items_by_group(groups_q, chunk)

        groups_b, units_b = arcs_toward(g, good.b_mask, q_mask)
        grouping_b = chunk_items_by_group(groups_b, chunk)
        weights_b = weights_of_node[units_b]

        # Distribution volume: one word per arc shipped to its group machine.
        ctx.charge_sort(
            "sparsify_distribute", words=int(groups_q.size + groups_b.size)
        )
        ctx.observe_loads(grouping_q.loads, "type-Q node distribution")
        ctx.observe_loads(grouping_b.loads, "type-B node distribution")

        spec_q = MachineGroupSpec(
            name="Q", grouping=grouping_q, unit_ids=units_q,
            check_upper=True, check_lower=False,
        )
        spec_b = MachineGroupSpec(
            name="B", grouping=grouping_b, unit_ids=units_b,
            weights=weights_b, check_upper=False, check_lower=True,
        )
        # Node-level windows (see stage.py): per-node invariant directly.
        specs = [spec_q, spec_b, spec_q.node_twin("Q/node"), spec_b.node_twin("B/node")]
        stage_scan_start = 1 + (j - 1) * params.max_scan_trials
        outcome = run_stage_seed_search(
            family, prob, specs, params, g.n, fidelity, scan_start=stage_scan_start
        )
        ctx.charge_seed_fix(family.seed_bits, "sparsify_seed")

        q_ids = np.nonzero(q_mask)[0].astype(np.int64)
        sampled = family.sample_indicator(outcome.seed, q_ids, prob)
        new_mask = np.zeros(g.n, dtype=bool)
        new_mask[q_ids[sampled]] = True
        ctx.charge_broadcast("sparsify_apply")

        # ---- invariant measurements -------------------------------------- #
        deg_qj = g.degrees_toward(new_mask).astype(np.float64)
        bound_deg = np.bincount(
            specs[2].grouping.group_of_machine,
            weights=outcome.mus[2] + outcome.lambdas[2],
            minlength=g.n,
        )
        active = bound_deg > 0
        degree_bound_ratio = (
            float(np.max(deg_qj[active] / bound_deg[active])) if active.any() else 0.0
        )

        # Retained weight per B-node: sum_{u in Q_j ~ v} w_u (scaled units).
        keep = new_mask[units_b]
        retained = np.bincount(groups_b[keep], weights=weights_b[keep], minlength=g.n)
        lower = np.bincount(
            specs[3].grouping.group_of_machine,
            weights=np.maximum(outcome.mus[3] - outcome.lambdas[3], 0.0),
            minlength=g.n,
        )
        lb_active = lower > 0
        retention_bound_ratio = (
            float(np.min(retained[lb_active] / lower[lb_active]))
            if lb_active.any()
            else float("inf")
        )

        ideal = outcome.p_real**j
        with np.errstate(divide="ignore", invalid="ignore"):
            dz = deg_q0 > 0
            decay_meas = float(np.mean(deg_qj[dz] / deg_q0[dz])) if dz.any() else 0.0
            # unscale: retained weight in 1/d units vs the stage-0 value.
            wz = (w_q0 > 0) & good.b_mask
            ret_meas = (
                float(np.mean((retained[wz] / scale) / w_q0[wz])) if wz.any() else 0.0
            )

        stages.append(
            StageRecord(
                stage=j,
                kind="nodes",
                items_before=items_before,
                items_after=int(new_mask.sum()),
                sample_prob=outcome.p_real,
                num_machines=grouping_q.num_machines + grouping_b.num_machines,
                max_load=max(grouping_q.max_load(), grouping_b.max_load()),
                seed=outcome.seed,
                trials=outcome.trials,
                slack_kappa=outcome.kappa,
                escalations=outcome.escalations,
                all_good=outcome.all_good,
                degree_bound_ratio=degree_bound_ratio,
                degree_decay_measured=decay_meas,
                degree_decay_ideal=ideal,
                retention_bound_ratio=retention_bound_ratio,
                retention_decay_measured=ret_meas,
                retention_decay_ideal=ideal,
            )
        )

        if new_mask.sum() == 0:
            fidelity.append(
                f"node sparsification stage {j} emptied Q'; keeping previous set"
            )
            break
        q_mask = new_mask

    return NodeSparsifyResult(
        q_prime_mask=q_mask, stages=tuple(stages), num_stages=len(stages)
    )
