"""Reference copies of the two sparsification bodies, one per section.

Before both sections ran one stage loop (:func:`repro.core.stage.sparsify`),
edge sparsification (Section 3.2, type-A/B machines over edge ids) and node
sparsification (Section 4.2, type-Q/B machines over node ids) each carried
their own copy of it.  These are those bodies, kept as the reference the
shared loop is compared with: the same final mask, the same charges on the
``MPCContext`` and the same ``StageRecord`` for every stage.

Each returns ``(mask, stages)``: ``E*`` or ``Q'`` and the stage records.
"""

from __future__ import annotations

import numpy as np

from repro.core.records import StageRecord
from repro.core.stage import MachineGroupSpec, run_stage_seed_search
from repro.graphs.kernels import arcs_toward
from repro.hashing.kwise import make_family
from repro.mpc.partition import chunk_items_by_group


def sparsify_edges_oracle(g, good, params, ctx, fidelity):
    i = good.i_star
    e_mask = good.e0_mask.copy()
    num_stages = max(0, i - 4)
    if num_stages == 0 or e_mask.sum() == 0:
        return e_mask, ()

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

    stages = []
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

    return e_mask, tuple(stages)


def sparsify_nodes_oracle(g, good, params, ctx, fidelity):
    i = good.i_star
    q_mask = good.q0_mask.copy()
    num_stages = max(0, i - 4)
    if num_stages == 0 or q_mask.sum() == 0:
        return q_mask, ()

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

    deg_q0 = g.degrees_toward(good.q0_mask).astype(np.float64)
    w_q0 = good.inv_deg_toward_q0.copy()

    stages = []
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

    return q_mask, tuple(stages)
