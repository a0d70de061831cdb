"""Tests for the deterministic sparsification stages (Sections 3.2, 4.2).

The last tests hold the one stage loop to the two per-section bodies it
replaced (``tests/sparsify_oracle.py``).
"""

import dataclasses
import re

import numpy as np
from hypothesis import given, settings, strategies as st

import sparsify_oracle as oracle
from repro.core import (
    Params,
    StageRecord,
    good_nodes_matching,
    good_nodes_mis,
    sparsify_edges,
    sparsify_nodes,
)
from repro.mpc import MPCContext
from repro.graphs import (
    Graph,
    complete_graph,
    gnp_random_graph,
    power_law_graph,
    star_graph,
)


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
        assert np.array_equal(res.mask, good.e0_mask)


def test_dense_graph_runs_i_minus_4_stages():
    g = complete_graph(40)
    gr, good, res, ctx, fid = run_edge_sparsify(g)
    assert good.i_star > 4
    assert res.num_stages == good.i_star - 4
    assert all(s.kind == "edges" for s in res.stages)


def test_e_star_subset_of_e0():
    g = complete_graph(40)
    gr, good, res, *_ = run_edge_sparsify(g)
    assert np.all(~res.mask | good.e0_mask)


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
    d = g.degrees_within(res.mask)
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
    assert not res.mask.any()
    assert res.num_stages == 0


def test_determinism_edge_sparsify():
    a = run_edge_sparsify(complete_graph(35))[2]
    b = run_edge_sparsify(complete_graph(35))[2]
    assert np.array_equal(a.mask, b.mask)
    assert [s.seed for s in a.stages] == [s.seed for s in b.stages]


# --------------------------------------------------------------------- #
# node sparsification
# --------------------------------------------------------------------- #


def test_node_sparsify_subset_of_q0():
    g = complete_graph(40)
    _, good, res, *_ = run_node_sparsify(g)
    assert np.all(~res.mask | good.q0_mask)


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
    d_q = g.degrees_toward(res.mask)
    assert d_q[res.mask].max(initial=0) <= 4 * params.degree_cap(g.n) + 4


def test_node_sparsify_never_empties():
    """The emptied-guard keeps Q' non-empty (needed by the Luby step)."""
    for seed in range(5):
        g = power_law_graph(120, 4, seed=seed)
        _, good, res, *_ = run_node_sparsify(g)
        if good.q0_mask.any():
            assert res.mask.any()


def test_determinism_node_sparsify():
    a = run_node_sparsify(complete_graph(35))[2]
    b = run_node_sparsify(complete_graph(35))[2]
    assert np.array_equal(a.mask, b.mask)


def test_c2_family_also_works():
    """Ablation: pairwise (c=2) sparsification still satisfies invariants."""
    params = Params(c=2)
    g = complete_graph(40)
    _, _, res, *_ = run_edge_sparsify(g, params)
    assert res.mask.any()
    for s in res.stages:
        if s.all_good:
            assert s.degree_bound_ratio <= 1.0 + 1e-9


# --------------------------------------------------------------------- #
# the shared stage loop against the two bodies it replaced
# --------------------------------------------------------------------- #


def _union(*parts):
    """Disjoint union of ``parts``."""
    edges, offset = [], 0
    for part in parts:
        edges.append(np.stack([part.edges_u, part.edges_v], axis=1) + offset)
        offset += part.n
    return Graph.from_edges(offset, np.concatenate(edges))


@st.composite
def stage_graphs(draw):
    gnp = st.builds(
        gnp_random_graph, st.integers(10, 60), st.floats(0.1, 0.6),
        seed=st.integers(0, 1000),
    )
    kind = draw(st.sampled_from(["gnp", "powerlaw", "star", "complete", "components"]))
    if kind == "gnp":
        return draw(gnp)
    if kind == "powerlaw":
        return power_law_graph(
            draw(st.integers(20, 80)), draw(st.integers(2, 6)), seed=draw(st.integers(0, 1000))
        )
    if kind == "star":
        return star_graph(draw(st.integers(5, 60)))
    if kind == "complete":
        return complete_graph(draw(st.integers(5, 45)))
    pieces = st.one_of(
        gnp, st.integers(5, 30).map(complete_graph), st.integers(3, 20).map(star_graph)
    )
    return _union(*draw(st.lists(pieces, min_size=2, max_size=3)))


def _stage_runs(g, params, good, new, old):
    """``(mask, stages, ctx, fidelity)`` of the new and the old body."""
    runs = []
    for run in (new, old):
        ctx = MPCContext(n=g.n, m=g.m, eps=params.eps, space_factor=params.space_factor)
        fid: list[str] = []
        out = run(g, good, params, ctx, fid)
        mask, stages = (out.mask, out.stages) if run is new else out
        runs.append((mask, stages, ctx, fid))
    return runs


def _assert_same_stages(runs):
    (mask, stages, ctx, fid), (want_mask, want_stages, want_ctx, want_fid) = runs
    assert mask.dtype == want_mask.dtype and np.array_equal(mask, want_mask)
    assert (ctx.rounds, ctx.words_moved, ctx.max_words_seen) == (
        want_ctx.rounds, want_ctx.words_moved, want_ctx.max_words_seen
    )
    assert ctx.by_category == want_ctx.by_category
    assert len(stages) == len(want_stages)
    for got, want in zip(stages, want_stages):
        for f in dataclasses.fields(StageRecord):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    # The same events, the two bodies' "emptied" lines now sharing one wording.
    def shared(events):
        return [re.sub(r" emptied .*", " emptied", f) for f in events]

    assert shared(fid) == shared(want_fid)


@given(stage_graphs(), st.sampled_from([2, 4]), st.sampled_from([0.5, 0.3]))
@settings(max_examples=20, deadline=None)
def test_stage_loop_matches_the_two_bodies(g, c, eps):
    """Both views of the one stage loop give the old bodies' masks, bills
    and stage records, floats compared by ``==``."""
    params = Params(c=c, eps=eps)
    good_m = good_nodes_matching(g, params)
    _assert_same_stages(_stage_runs(
        g, params, good_m, sparsify_edges, oracle.sparsify_edges_oracle
    ))
    good_i = good_nodes_mis(g, params)
    _assert_same_stages(_stage_runs(
        g, params, good_i, sparsify_nodes, oracle.sparsify_nodes_oracle
    ))


def test_stage_loop_matches_the_bodies_when_a_stage_fails():
    """Both bodies agree where a stage's scan exhausts its ladder (both
    views) and where a stage samples no item (the node view)."""
    exhausting = Params(c=2, max_scan_trials=2, max_slack_escalations=0)
    g = complete_graph(40)
    for good, new, old in (
        (good_nodes_matching(g, exhausting), sparsify_edges, oracle.sparsify_edges_oracle),
        (good_nodes_mis(g, exhausting), sparsify_nodes, oracle.sparsify_nodes_oracle),
    ):
        runs = _stage_runs(g, exhausting, good, new, old)
        _assert_same_stages(runs)
        assert not all(s.all_good for s in runs[0][1])

    g, params = gnp_random_graph(13, 0.3568, seed=14), Params()
    runs = _stage_runs(
        g, params, good_nodes_mis(g, params), sparsify_nodes, oracle.sparsify_nodes_oracle
    )
    _assert_same_stages(runs)
    assert runs[0][1][-1].items_after == 0 and runs[0][0].any()
