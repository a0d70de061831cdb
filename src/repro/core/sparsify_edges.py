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

with ``mu_x = p_real * e_x``.  We record both the *implied bounds* (which
hold by construction whenever all machines are good) and the measured decay
against the paper's ideal ``n^{-j delta}`` rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph
from ..hashing.kwise import make_family
from ..mpc.context import MPCContext
from ..mpc.partition import chunk_items_by_group
from .good_nodes import GoodNodesMatching
from .params import Params
from .records import StageRecord
from .stage import MachineGroupSpec, run_stage_seed_search

__all__ = ["EdgeSparsifyResult", "sparsify_edges"]


@dataclass(frozen=True)
class EdgeSparsifyResult:
    """``E*`` plus the per-stage trace."""

    e_star_mask: np.ndarray  # bool[m]
    stages: tuple[StageRecord, ...]
    num_stages: int

    @property
    def num_edges(self) -> int:
        return int(self.e_star_mask.sum())


def sparsify_edges(
    g: Graph,
    good: GoodNodesMatching,
    params: Params,
    ctx: MPCContext,
    fidelity: list[str],
) -> EdgeSparsifyResult:
    """Compute ``E* ⊆ E_0`` with per-node degree ``O(n^{4 delta})``."""
    i = good.i_star
    e_mask = good.e0_mask.copy()
    num_stages = max(0, i - 4)
    if num_stages == 0 or e_mask.sum() == 0:
        return EdgeSparsifyResult(
            e_star_mask=e_mask, stages=tuple(), num_stages=0
        )

    family = make_family(universe=max(g.m, 2), k=params.c, min_q=params.min_q)
    prob = params.sample_prob(g.n)
    chunk = params.chunk_size(g.n)
    deg0 = g.degrees_within(good.e0_mask).astype(np.float64)
    x0_u = good.in_x_of_u
    x0_v = good.in_x_of_v
    # |X(v)| per B-node at stage 0.
    x0_count = np.bincount(
        np.concatenate([g.edges_u[x0_u], g.edges_v[x0_v]]), minlength=g.n
    ).astype(np.float64)

    stages: list[StageRecord] = []
    for j in range(1, num_stages + 1):
        eids = np.nonzero(e_mask)[0].astype(np.int64)
        items_before = int(eids.size)
        if items_before == 0:
            fidelity.append(f"edge sparsification stage {j}: E emptied; stopping")
            break

        # ---- type A machines: every node's incident E_{j-1} edges -------- #
        groups_a = np.concatenate([g.edges_u[eids], g.edges_v[eids]])
        units_a = np.concatenate([eids, eids])
        grouping_a = chunk_items_by_group(groups_a, chunk)

        # ---- type B machines: X(v) ∩ E_{j-1}, grouped by v in B ---------- #
        side_u = x0_u & e_mask
        side_v = x0_v & e_mask
        eid_bu = np.nonzero(side_u)[0].astype(np.int64)
        eid_bv = np.nonzero(side_v)[0].astype(np.int64)
        groups_b = np.concatenate([g.edges_u[eid_bu], g.edges_v[eid_bv]])
        units_b = np.concatenate([eid_bu, eid_bv])
        grouping_b = chunk_items_by_group(groups_b, chunk)

        # Distribution volume: one word per arc shipped to its group machine.
        ctx.charge_sort(
            "sparsify_distribute", words=int(groups_a.size + groups_b.size)
        )
        ctx.observe_loads(grouping_a.loads, "type-A edge distribution")
        ctx.observe_loads(grouping_b.loads, "type-B edge distribution")

        spec_a = MachineGroupSpec(
            name="A", grouping=grouping_a, unit_ids=units_a,
            check_upper=True, check_lower=True,
        )
        spec_b = MachineGroupSpec(
            name="B", grouping=grouping_b, unit_ids=units_b,
            check_upper=False, check_lower=True,
        )
        # Node-level windows: the per-node invariant the machine windows
        # are a proxy for (non-vacuous at finite sizes; see stage.py).
        specs = [spec_a, spec_b, spec_a.node_twin("A/node"), spec_b.node_twin("B/node")]
        stage_scan_start = 1 + (j - 1) * params.max_scan_trials
        outcome = run_stage_seed_search(
            family, prob, specs, params, g.n, fidelity, scan_start=stage_scan_start
        )
        ctx.charge_seed_fix(family.seed_bits, "sparsify_seed")

        sampled_edges = family.sample_indicator(outcome.seed, eids, prob)
        new_mask = np.zeros(g.m, dtype=bool)
        new_mask[eids[sampled_edges]] = True
        ctx.charge_broadcast("sparsify_apply")

        # ---- invariant measurements -------------------------------------- #
        # The node-level windows (specs[2]/[3]) give the per-node implied
        # bounds directly; one virtual machine per node.
        node_spec_a, node_spec_b = specs[2], specs[3]
        deg_j = g.degrees_within(new_mask).astype(np.float64)
        bound_deg = np.bincount(
            node_spec_a.grouping.group_of_machine,
            weights=outcome.mus[2] + outcome.lambdas[2],
            minlength=g.n,
        )
        active = bound_deg > 0
        degree_bound_ratio = (
            float(np.max(deg_j[active] / bound_deg[active])) if active.any() else 0.0
        )

        retained = np.bincount(
            np.concatenate(
                [g.edges_u[x0_u & new_mask], g.edges_v[x0_v & new_mask]]
            ),
            minlength=g.n,
        ).astype(np.float64)
        lower = np.bincount(
            node_spec_b.grouping.group_of_machine,
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
            nz = deg0 > 0
            decay_meas = float(np.mean(deg_j[nz] / deg0[nz])) if nz.any() else 0.0
            bnz = (x0_count > 0) & good.b_mask
            ret_meas = (
                float(np.mean(retained[bnz] / x0_count[bnz])) if bnz.any() else 0.0
            )

        stages.append(
            StageRecord(
                stage=j,
                kind="edges",
                items_before=items_before,
                items_after=int(new_mask.sum()),
                sample_prob=outcome.p_real,
                num_machines=grouping_a.num_machines + grouping_b.num_machines,
                max_load=max(grouping_a.max_load(), grouping_b.max_load()),
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
                f"edge sparsification stage {j} emptied E*; keeping stage {j-1} set"
            )
            break
        e_mask = new_mask

    return EdgeSparsifyResult(
        e_star_mask=e_mask, stages=tuple(stages), num_stages=len(stages)
    )
