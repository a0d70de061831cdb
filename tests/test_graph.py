"""Tests for the CSR Graph structure."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.graphs import Graph, line_graph


def small_edge_lists():
    return st.lists(
        st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=80
    )


def test_empty_graph():
    g = Graph.empty(5)
    assert g.n == 5 and g.m == 0
    assert g.max_degree() == 0
    assert np.all(g.isolated_mask())


def test_zero_vertices():
    g = Graph.empty(0)
    assert g.n == 0 and g.m == 0
    assert g.max_degree() == 0


def test_from_edges_dedup_and_selfloops():
    g = Graph.from_edges(4, [(0, 1), (1, 0), (2, 2), (1, 2), (1, 2)])
    assert g.m == 2
    assert g.has_edge(0, 1) and g.has_edge(2, 1)
    assert not g.has_edge(2, 2)


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 5)])


def test_canonical_orientation():
    g = Graph.from_edges(5, [(4, 1), (3, 0)])
    assert np.all(g.edges_u < g.edges_v)


def test_degrees_and_neighbors():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    assert g.degrees().tolist() == [3, 2, 2, 1]
    assert sorted(g.neighbors(0).tolist()) == [1, 2, 3]
    assert g.degree(3) == 1
    assert g.max_degree() == 3


def test_incident_edge_ids_match_endpoints():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3)])
    for v in range(4):
        for eid in g.incident_edge_ids(v).tolist():
            assert v in (int(g.edges_u[eid]), int(g.edges_v[eid]))


def test_edge_degrees_full():
    # An edge's degree (other edges sharing an endpoint) is its degree in
    # the line graph.  Path 0-1-2-3: the middle edge touches both others.
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    d = line_graph(g).degrees()
    by_pair = {
        (int(u), int(v)): int(x)
        for u, v, x in zip(g.edges_u, g.edges_v, d)
    }
    assert by_pair[(0, 1)] == 1
    assert by_pair[(1, 2)] == 2
    assert by_pair[(2, 3)] == 1


def test_edge_degrees_with_mask():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    mask = np.array([True, False, True])
    sub = g.keep_edges(mask)
    assert sub.edge_array().tolist() == [[0, 1], [2, 3]]
    assert line_graph(sub).degrees().tolist() == [0, 0]  # no longer adjacent


def test_degrees_within_mask():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    mask = np.array([True, True, False])
    assert g.degrees_within(mask).tolist() == [1, 2, 1, 0]


def test_degrees_toward_subset():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    sel = np.array([False, True, True, False])
    assert g.degrees_toward(sel).tolist() == [2, 0, 0, 0]


def test_remove_vertices_keeps_ids():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    g2 = g.remove_vertices(np.array([False, True, False, False]))
    assert g2.n == 4
    assert g2.m == 1
    assert g2.has_edge(2, 3)
    assert g2.degree(1) == 0


def test_keep_edges():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    g2 = g.keep_edges(np.array([True, False, True]))
    assert g2.m == 2
    assert g2.has_edge(0, 1) and g2.has_edge(2, 3) and not g2.has_edge(1, 2)


def test_relabel():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    g2 = g.relabel(np.array([2, 1, 0]), 3)
    assert g2.has_edge(2, 1) and g2.has_edge(1, 0)


def test_equality_and_hash():
    a = Graph.from_edges(3, [(0, 1)])
    b = Graph.from_edges(3, [(1, 0)])
    c = Graph.from_edges(3, [(0, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_to_networkx_roundtrip():
    g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    nxg = g.to_networkx()
    assert nxg.number_of_nodes() == 5
    assert nxg.number_of_edges() == 3
    assert nxg.has_edge(3, 4)


@given(small_edge_lists())
def test_csr_consistent_with_edge_list(edges):
    g = Graph.from_edges(20, edges)
    # Every canonical edge appears exactly twice in the arc lists.
    deg = np.zeros(20, dtype=int)
    for u, v in zip(g.edges_u.tolist(), g.edges_v.tolist()):
        deg[u] += 1
        deg[v] += 1
    assert np.array_equal(deg, g.degrees())
    # Neighbour sets symmetric.
    for v in range(20):
        for u in g.neighbors(v).tolist():
            assert v in g.neighbors(u).tolist()


@given(small_edge_lists())
def test_sum_degrees_is_twice_m(edges):
    g = Graph.from_edges(20, edges)
    assert int(g.degrees().sum()) == 2 * g.m


@given(small_edge_lists(), st.integers(0, 19))
def test_remove_vertex_drops_exactly_its_edges(edges, v):
    g = Graph.from_edges(20, edges)
    mask = np.zeros(20, dtype=bool)
    mask[v] = True
    g2 = g.remove_vertices(mask)
    assert g2.m == g.m - g.degree(v)
    assert g2.degree(v) == 0
