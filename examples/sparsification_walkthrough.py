#!/usr/bin/env python3
"""Walkthrough: the deterministic sparsification pipeline, stage by stage.

Traces one outer iteration of the matching algorithm on a dense graph:

1. good-node selection (sets X, degree classes C_i, chosen class B);
2. the i - 4 derandomized subsampling stages with their invariant
   measurements (Lemmas 10/11);
3. the final derandomized Luby step on E* (Lemma 13).

Useful for understanding *why* the algorithm is O(1) rounds per iteration:
every step prints what a machine-level implementation would charge.

Run:  python examples/sparsification_walkthrough.py
"""

import numpy as np

from repro.core import (
    Params,
    good_nodes_matching,
    luby_matching_step,
    sparsify_edges,
)
from repro.graphs import gnp_random_graph
from repro.mpc import MPCContext


def main() -> None:
    params = Params(eps=0.5)
    g = gnp_random_graph(n=300, p=0.3, seed=13)
    print(f"input: {g}, delta = {params.delta_value}")
    print(f"degree classes: C_i = [n^((i-1)/16), n^(i/16)), i = 1..16\n")

    # -- step 1: good nodes -------------------------------------------- #
    good = good_nodes_matching(g, params)
    deg = g.degrees()
    print("step 1 -- good nodes (Lemma 3 / Corollary 8):")
    print(f"  |X| = {int(good.x_mask.sum())} nodes, weight(X) = {int(deg[good.x_mask].sum())} >= m/2 = {g.m // 2}")
    print(f"  chosen class i* = {good.i_star}, |B| = {good.num_good}")
    print(f"  weight(B) = {good.weight_b:.0f} >= (delta/2) m = {params.delta_value / 2 * g.m:.0f}")
    print(f"  |E0| = {int(good.e0_mask.sum())} candidate edges\n")

    # -- step 2: sparsification stages --------------------------------- #
    ctx = MPCContext(n=g.n, m=g.m, eps=params.eps, space_factor=params.space_factor)
    fidelity: list[str] = []
    spars = sparsify_edges(g, good, params, ctx, fidelity)
    print(f"step 2 -- sparsification ({spars.num_stages} stages, rate n^-delta = {params.sample_prob(g.n):.3f}):")
    for s in spars.stages:
        print(
            f"  stage {s.stage}: |E| {s.items_before} -> {s.items_after} "
            f"(ideal decay {s.degree_decay_ideal:.3f}, measured {s.degree_decay_measured:.3f}); "
            f"{s.num_machines} machines of <= {s.max_load} edges; "
            f"seed {s.seed} picked from {s.trials} evaluated seeds "
            f"(kappa {s.slack_kappa:.2f}, {s.escalations} escalations); "
            f"all good = {s.all_good}"
        )
    d_star = g.degrees_within(spars.mask)
    print(
        f"  => max degree in E*: {int(d_star.max())} "
        f"(cap 2 n^(4 delta) = {params.degree_cap(g.n):.1f}); "
        f"2-hop neighbourhoods now fit machines of S = {ctx.S} words\n"
    )

    # -- step 3: Luby selection ----------------------------------------- #
    eids, info = luby_matching_step(g, spars.mask, good, params, ctx, fidelity)
    covered = np.unique(np.concatenate([g.edges_u[eids], g.edges_v[eids]]))
    print("step 3 -- derandomized Luby step (Lemma 13):")
    print(f"  matching of {eids.size} edges found with seed {info.selection.seed} ({info.seed_bits}-bit)")
    print(f"  objective {info.selection.value:.0f} >= target {info.target:.1f} (W_B/109)")
    print(f"  removing {covered.size} matched nodes deletes >= delta m / 536 edges\n")

    print(f"charged MPC rounds for this whole iteration: {ctx.rounds}")
    print(f"rounds by category: {ctx.by_category}")
    if fidelity:
        print(f"fidelity events: {fidelity}")


if __name__ == "__main__":
    main()
