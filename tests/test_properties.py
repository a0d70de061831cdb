"""Cross-cutting property-based tests (hypothesis) on algorithm invariants.

These tie the whole stack together: for arbitrary random graphs, the
deterministic algorithms must (a) be correct, (b) be reproducible, (c) agree
with classical combinatorial relationships between MIS, matching, vertex
cover, and coloring.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from greedy_oracle import greedy_mis
from repro.baselines import greedy_matching
from repro.core import (
    deterministic_coloring,
    deterministic_maximal_matching,
    deterministic_mis,
    deterministic_vertex_cover,
    is_vertex_cover,
)
from repro.graphs import Graph, gnp_random_graph
from repro.verify import verify_matching_pairs, verify_mis_nodes

graph_strategy = st.builds(
    gnp_random_graph,
    n=st.integers(2, 50),
    p=st.floats(0.0, 0.4),
    seed=st.integers(0, 10_000),
)

edge_list_strategy = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=40
).map(lambda edges: Graph.from_edges(15, edges))


@given(graph_strategy)
@settings(max_examples=15)
def test_mis_correct_on_arbitrary_gnp(g):
    res = deterministic_mis(g)
    assert verify_mis_nodes(g, res.independent_set)


@given(graph_strategy)
@settings(max_examples=15)
def test_matching_correct_on_arbitrary_gnp(g):
    res = deterministic_maximal_matching(g)
    assert verify_matching_pairs(g, res.pairs)


@given(edge_list_strategy)
@settings(max_examples=15)
def test_mis_correct_on_arbitrary_edge_lists(g):
    res = deterministic_mis(g)
    assert verify_mis_nodes(g, res.independent_set)


@given(edge_list_strategy)
@settings(max_examples=15)
def test_matching_correct_on_arbitrary_edge_lists(g):
    res = deterministic_maximal_matching(g)
    assert verify_matching_pairs(g, res.pairs)


@given(graph_strategy)
@settings(max_examples=10)
def test_mis_size_within_classical_bounds(g):
    """Any two maximal independent sets differ by at most a Delta factor;
    compare against the greedy oracle."""
    det = deterministic_mis(g).independent_set
    gre = greedy_mis(g)
    delta = max(g.max_degree(), 1)
    assert len(det) <= delta * len(gre) + 1
    assert len(gre) <= delta * len(det) + 1


@given(graph_strategy)
@settings(max_examples=10)
def test_maximal_matchings_within_factor_two(g):
    """Any maximal matching is a 2-approx of maximum matching, so two
    maximal matchings are within a factor 2 of each other."""
    det = deterministic_maximal_matching(g).pairs.shape[0]
    gre = greedy_matching(g).shape[0]
    if det or gre:
        assert det <= 2 * gre
        assert gre <= 2 * det


@given(graph_strategy)
@settings(max_examples=10)
def test_vertex_cover_vs_matching_duality(g):
    """|M| <= |VC_opt| <= |our cover| = 2|M| (weak LP duality, realized)."""
    vc = deterministic_vertex_cover(g)
    assert is_vertex_cover(g, vc.cover)
    assert vc.size == 2 * vc.matching.pairs.shape[0]


@given(st.integers(2, 30), st.integers(0, 1000))
@settings(max_examples=10)
def test_coloring_proper_on_random(n, seed):
    g = gnp_random_graph(n, 0.25, seed=seed)
    res = deterministic_coloring(g)
    if g.m:
        assert np.all(res.colors[g.edges_u] != res.colors[g.edges_v])
    assert res.num_colors <= g.max_degree() + 1


@given(graph_strategy)
@settings(max_examples=8)
def test_mis_plus_neighbors_covers_graph(g):
    """MIS domination: every node is in the MIS or adjacent to it."""
    res = deterministic_mis(g)
    mask = res.mis_mask(g.n)
    dominated = g.degrees_toward(mask) > 0
    assert np.all(mask | dominated)


@given(graph_strategy)
@settings(max_examples=8)
def test_run_records_are_consistent(g):
    """The trace must account exactly for the edge count evolution."""
    res = deterministic_mis(g)
    prev = g.m
    for rec in res.records:
        assert rec.edges_before == prev
        prev = rec.edges_after
    assert prev == 0 or not res.records
