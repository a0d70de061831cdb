"""T5 -- Section 3.3 / 4.3: post-sparsification degrees fit 2-hop gathering.

The whole point of ``E*`` / ``Q'``: maximum degree O(n^{4 delta}) so that a
2-hop neighbourhood (O(n^{8 delta}) = O(n^eps) words) fits on one machine.
Tabulates, per workload: max degree in the sparsified structure vs the
``2 n^{4 delta}`` cap, and the realised maximum 2-hop words vs ``S``.
"""

import numpy as np

from repro.analysis import render_table
from repro.core import (
    Params,
    good_nodes_matching,
    good_nodes_mis,
    sparsify_edges,
    sparsify_nodes,
)
from repro.graphs import complete_graph, gnp_random_graph, power_law_graph
from repro.mpc import MPCContext

from _common import emit

WORKLOADS = [
    ("K60", lambda: complete_graph(60)),
    ("gnp-dense", lambda: gnp_random_graph(300, 0.25, seed=55)),
    ("power-law", lambda: power_law_graph(500, 6, seed=56)),
]


def run():
    params = Params()
    rows = []
    for name, make in WORKLOADS:
        g = make()
        ctx = MPCContext(n=g.n, m=g.m, eps=params.eps, space_factor=params.space_factor)
        cap = params.degree_cap(g.n)

        good_m = good_nodes_matching(g, params)
        res_e = sparsify_edges(g, good_m, params, ctx, [])
        d_star = g.degrees_within(res_e.mask)
        two_hop = np.zeros(g.n, dtype=np.int64)
        eids = np.nonzero(res_e.mask)[0]
        np.add.at(two_hop, g.edges_u[eids], d_star[g.edges_v[eids]] + 1)
        np.add.at(two_hop, g.edges_v[eids], d_star[g.edges_u[eids]] + 1)
        rows.append(
            (name, "E*", int(d_star.max()), round(cap, 1),
             int(two_hop[good_m.b_mask].max(initial=0)), ctx.S)
        )

        good_i = good_nodes_mis(g, params)
        res_n = sparsify_nodes(g, good_i, params, ctx, [])
        d_q = g.degrees_toward(res_n.mask)
        dq_max = int(d_q[res_n.mask].max(initial=0))
        # words for N_v gather: chunk * (1 + max internal degree)
        words = min(params.chunk_size(g.n), dq_max or 1) * (1 + dq_max)
        rows.append((name, "Q'", dq_max, round(cap, 1), words, ctx.S))
    return rows


def test_t5_degree_bound(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = render_table(
        "T5  degree caps: sparsified degree <= O(n^{4 delta}); 2-hop fits S",
        ["graph", "struct", "max degree", "2 n^{4 delta}", "2-hop words", "S"],
        rows,
        footnote="claim: max degree within O(1) of cap; 2-hop words <= S",
    )
    emit("t5_degree_bound", table)

    for row in rows:
        assert row[2] <= 4 * row[3] + 4, f"{row[0]}/{row[1]} degree cap violated"
        assert row[4] <= row[5], f"{row[0]}/{row[1]} 2-hop does not fit S"
