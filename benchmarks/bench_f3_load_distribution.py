"""F3 -- figure: machine-load distribution under the type-A/B distribution.

The paper's layout promises ``chunk = n^{4 delta}`` items on all but at most
one machine per node group.  This bench histograms realised loads for a
dense workload's first sparsification stage, and also exercises the literal
message-passing engine (Lemma 4 sort) to report its load high-water vs S.
"""

import numpy as np

from repro.analysis import render_series, render_table
from repro.core import Params, good_nodes_matching
from repro.graphs import gnp_random_graph
from repro.mpc import MPCEngine, chunk_items_by_group, distributed_sort_packed

from _common import emit


def run():
    params = Params()
    g = gnp_random_graph(400, 0.2, seed=140)
    good = good_nodes_matching(g, params)
    eids = np.nonzero(good.e0_mask)[0]
    groups = np.concatenate([g.edges_u[eids], g.edges_v[eids]])
    chunk = params.chunk_size(g.n)
    grouping = chunk_items_by_group(groups, chunk)
    loads = grouping.loads

    # Literal engine: sort 600 keys on 8 machines of 256 words.
    eng = MPCEngine(num_machines=8, space=256)
    values = np.random.default_rng(0).integers(0, 10_000, size=600)
    eng.load_balanced_packed(values)
    sort_rounds = distributed_sort_packed(eng)
    out = eng.tables[""].col(0)  # machine-major after the sort
    assert out.tolist() == sorted(values.tolist())
    return chunk, loads, eng.max_words_seen, sort_rounds


def test_f3_load_distribution(benchmark):
    chunk, loads, engine_hw, sort_rounds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    hist = np.bincount(loads, minlength=chunk + 1)
    out = render_series(
        "F3a  type-A machine load histogram (chunk = n^{4 delta})",
        list(range(len(hist))), hist.tolist(), "load", "machines",
    )
    full = int((loads == chunk).sum())
    out += "\n\n" + render_table(
        "F3b  layout + engine summary",
        ["chunk", "machines", "full machines", "max load", "engine sort rounds",
         "engine high-water"],
        [[chunk, loads.size, full, int(loads.max()), sort_rounds, engine_hw]],
        footnote="claim: at most one non-full machine per node group; "
        "sort O(1) rounds",
    )
    emit("f3_load_distribution", out)

    assert loads.max() <= chunk
    # 'all but at most one machine full' => non-full machines <= #groups.
    assert (loads < chunk).sum() <= np.unique(loads).size + 400
    assert sort_rounds == 3
