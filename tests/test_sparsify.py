"""Tests for the deterministic sparsification stages (Sections 3.2, 4.2)."""

import numpy as np

from repro.core import (
    Params,
    good_nodes_matching,
    good_nodes_mis,
    sparsify_edges,
    sparsify_nodes,
)
from repro.mpc import MPCContext
from repro.graphs import complete_graph, gnp_random_graph, power_law_graph


def run_edge_sparsify(g, params=None):
    params = params or Params()
    good = good_nodes_matching(g, params)
    ctx = MPCContext(n=g.n, m=g.m, eps=params.eps, space_factor=params.space_factor)
    fid: list[str] = []
    res = sparsify_edges(g, good, params, ctx, fid)
    return g, good, res, ctx, fid


def run_node_sparsify(g, params=None):
    params = params or Params()
    good = good_nodes_mis(g, params)
    ctx = MPCContext(n=g.n, m=g.m, eps=params.eps, space_factor=params.space_factor)
    fid: list[str] = []
    res = sparsify_nodes(g, good, params, ctx, fid)
    return g, good, res, ctx, fid


# --------------------------------------------------------------------- #
# edge sparsification
# --------------------------------------------------------------------- #


def test_low_class_skips_stages():
    # A sparse graph whose chosen class is <= 4: E* must equal E_0 verbatim.
    g = gnp_random_graph(200, 0.015, seed=1)
    gr, good, res, ctx, fid = run_edge_sparsify(g)
    if good.i_star <= 4:
        assert res.num_stages == 0
        assert np.array_equal(res.e_star_mask, good.e0_mask)


def test_dense_graph_runs_i_minus_4_stages():
    g = complete_graph(40)
    gr, good, res, ctx, fid = run_edge_sparsify(g)
    assert good.i_star > 4
    assert res.num_stages == good.i_star - 4
    assert all(s.kind == "edges" for s in res.stages)


def test_e_star_subset_of_e0():
    g = complete_graph(40)
    gr, good, res, *_ = run_edge_sparsify(g)
    assert np.all(~res.e_star_mask | good.e0_mask)


def test_stage_records_monotone_shrink():
    g = complete_graph(40)
    _, _, res, *_ = run_edge_sparsify(g)
    for s in res.stages:
        assert 0 < s.items_after <= s.items_before
        assert 0 < s.sample_prob < 1


def test_invariant_bounds_hold_when_all_good():
    """Goodness of all machines implies the per-node invariant bounds
    (Lemmas 10-11): the recorded ratios must certify it."""
    g = complete_graph(40)
    _, _, res, *_ = run_edge_sparsify(g)
    for s in res.stages:
        if s.all_good:
            assert s.degree_bound_ratio <= 1.0 + 1e-9
            assert s.retention_bound_ratio >= 1.0 - 1e-9 or s.retention_bound_ratio == float("inf")


def test_measured_decay_tracks_ideal():
    """Measured per-stage retention within a factor ~2 of n^{-j delta}."""
    g = complete_graph(40)
    _, _, res, *_ = run_edge_sparsify(g)
    last = res.stages[-1]
    assert last.degree_decay_measured <= 2.5 * last.degree_decay_ideal + 0.1
    assert last.retention_decay_measured >= 0.3 * last.retention_decay_ideal


def test_final_degrees_bounded():
    """d_{E*}(v) = O(n^{4 delta}): the property enabling 2-hop gathering."""
    params = Params()
    g = complete_graph(40)
    _, _, res, *_ = run_edge_sparsify(g, params)
    d = g.degrees_within(res.e_star_mask)
    # Allow the finite-size constant: 4x the asymptotic 2 n^{4 delta}.
    assert d.max() <= 4 * params.degree_cap(g.n) + 4


def test_machine_loads_respect_chunk():
    g = complete_graph(40)
    params = Params()
    _, _, res, *_ = run_edge_sparsify(g, params)
    chunk = params.chunk_size(g.n)
    for s in res.stages:
        assert s.max_load <= chunk


def test_rounds_charged_per_stage():
    g = complete_graph(40)
    *_, ctx, fid = run_edge_sparsify(g)
    assert ctx.by_category["sparsify_seed"] > 0
    assert ctx.by_category["sparsify_distribute"] > 0


def test_empty_e0_returns_empty():
    from repro.graphs import Graph

    g = Graph.empty(10)
    params = Params()
    good = good_nodes_matching(g, params)
    ctx = MPCContext(n=10, m=0)
    res = sparsify_edges(g, good, params, ctx, [])
    assert res.num_edges == 0
    assert res.num_stages == 0


def test_determinism_edge_sparsify():
    a = run_edge_sparsify(complete_graph(35))[2]
    b = run_edge_sparsify(complete_graph(35))[2]
    assert np.array_equal(a.e_star_mask, b.e_star_mask)
    assert [s.seed for s in a.stages] == [s.seed for s in b.stages]


# --------------------------------------------------------------------- #
# node sparsification
# --------------------------------------------------------------------- #


def test_node_sparsify_subset_of_q0():
    g = complete_graph(40)
    _, good, res, *_ = run_node_sparsify(g)
    assert np.all(~res.q_prime_mask | good.q0_mask)


def test_node_sparsify_runs_stages_on_dense():
    g = complete_graph(40)
    _, good, res, *_ = run_node_sparsify(g)
    assert good.i_star > 4
    assert res.num_stages == good.i_star - 4
    assert all(s.kind == "nodes" for s in res.stages)


def test_node_invariants_when_all_good():
    g = complete_graph(40)
    _, _, res, *_ = run_node_sparsify(g)
    for s in res.stages:
        if s.all_good:
            assert s.degree_bound_ratio <= 1.0 + 1e-9


def test_q_prime_internal_degrees_bounded():
    params = Params()
    g = complete_graph(40)
    _, _, res, *_ = run_node_sparsify(g, params)
    d_q = g.degrees_toward(res.q_prime_mask)
    assert d_q[res.q_prime_mask].max(initial=0) <= 4 * params.degree_cap(g.n) + 4


def test_node_sparsify_never_empties():
    """The emptied-guard keeps Q' non-empty (needed by the Luby step)."""
    for seed in range(5):
        g = power_law_graph(120, 4, seed=seed)
        _, good, res, *_ = run_node_sparsify(g)
        if good.q0_mask.any():
            assert res.q_prime_mask.any()


def test_determinism_node_sparsify():
    a = run_node_sparsify(complete_graph(35))[2]
    b = run_node_sparsify(complete_graph(35))[2]
    assert np.array_equal(a.q_prime_mask, b.q_prime_mask)


def test_c2_family_also_works():
    """Ablation: pairwise (c=2) sparsification still satisfies invariants."""
    params = Params(c=2)
    g = complete_graph(40)
    _, _, res, *_ = run_edge_sparsify(g, params)
    assert res.num_edges > 0
    for s in res.stages:
        if s.all_good:
            assert s.degree_bound_ratio <= 1.0 + 1e-9
