"""Tests for graph powers, line graphs and the Linial coloring stack."""

import networkx as nx
import numpy as np
import pytest

import repro.graphs.power as power
from greedy_oracle import greedy_mis
from repro.graphs import (
    BallTooLargeError,
    Graph,
    ball_sizes,
    cycle_graph,
    distance2_coloring,
    gnp_random_graph,
    grid_graph,
    hop_pattern,
    line_graph,
    line_graph_size,
    linial_coloring,
    path_graph,
    square_graph,
    star_graph,
    validate_coloring,
)
from repro.verify import is_maximal_matching


def validate_distance2_coloring(g: Graph, colors: np.ndarray) -> bool:
    """True iff nodes at distance 1 or 2 in ``g`` always differ in color."""
    return validate_coloring(square_graph(g), colors)


# --------------------------------------------------------------------- #
# square graph / balls
# --------------------------------------------------------------------- #


def test_square_of_path():
    g = path_graph(5)  # 0-1-2-3-4
    g2 = square_graph(g)
    assert g2.has_edge(0, 2) and g2.has_edge(0, 1)
    assert not g2.has_edge(0, 3)


def test_square_matches_networkx_power():
    g = gnp_random_graph(40, 0.1, seed=1)
    g2 = square_graph(g)
    nx2 = nx.power(g.to_networkx(), 2)
    assert g2.m == nx2.number_of_edges()


def test_r_hop_balls_match_bfs():
    """Row ``v`` of the ``r``-hop pattern is ``B_r(v)`` without ``v``."""
    g = gnp_random_graph(30, 0.15, seed=2)
    nxg = g.to_networkx()
    for r in (1, 2, 3):
        sizes = ball_sizes(g, r)
        reach = hop_pattern(g, r, sizes=sizes)
        for v in range(g.n):
            want = {
                u
                for u, d in nx.single_source_shortest_path_length(nxg, v, cutoff=r).items()
                if u != v
            }
            row = reach.indices[reach.indptr[v] : reach.indptr[v + 1]]
            assert set(row.tolist()) == want and sizes[v] == len(want)


def test_r_hop_zero():
    g = path_graph(4)
    assert ball_sizes(g, 0).tolist() == [0, 0, 0, 0]


def test_r_hop_max_ball_guard(monkeypatch):
    def materialised(*args, **kwargs):
        raise AssertionError("G^r built before the space check")

    # The check fires while the balls are counted, before any pattern.
    monkeypatch.setattr(power, "hop_pattern", materialised)
    g = star_graph(30)
    for r in (1, 2):
        with pytest.raises(BallTooLargeError):
            ball_sizes(g, r, max_ball=5)


def test_ball_sizes_star():
    g = star_graph(10)
    sizes = ball_sizes(g, 2)
    assert sizes[0] == 9  # hub reaches all leaves in 1 hop
    assert np.all(sizes[1:] == 9)  # leaves reach hub + other leaves in 2


# --------------------------------------------------------------------- #
# line graph
# --------------------------------------------------------------------- #


def test_line_graph_of_path():
    g = path_graph(4)  # edges 0-1, 1-2, 2-3
    lg = line_graph(g)
    assert lg.n == 3
    assert lg.m == 2  # a path again


def test_line_graph_of_star_is_clique():
    g = star_graph(5)
    lg = line_graph(g)
    assert lg.n == 4
    assert lg.m == 6  # K4


def test_line_graph_size_formula():
    g = gnp_random_graph(25, 0.2, seed=3)
    assert line_graph_size(g) == line_graph(g).m


def test_line_graph_matches_networkx():
    g = gnp_random_graph(20, 0.2, seed=4)
    lg = line_graph(g)
    nxl = nx.line_graph(g.to_networkx())
    assert lg.m == nxl.number_of_edges()


def test_line_graph_cap():
    g = star_graph(100)
    with pytest.raises(ValueError):
        line_graph(g, max_edges=10)


def test_line_graph_degree_bound():
    g = gnp_random_graph(30, 0.2, seed=5)
    lg = line_graph(g)
    assert lg.max_degree() <= 2 * g.max_degree() - 2


def test_matching_from_line_mis():
    """Vertex ``e`` of ``L(G)`` is edge ``e`` of ``G``, so an MIS of the
    line graph is a maximal matching of ``G``."""
    g = cycle_graph(6)
    lg = line_graph(g)
    emask = np.zeros(g.m, dtype=bool)
    emask[greedy_mis(lg)] = True
    assert is_maximal_matching(g, emask)


# --------------------------------------------------------------------- #
# coloring
# --------------------------------------------------------------------- #


def test_linial_coloring_valid():
    g = gnp_random_graph(60, 0.1, seed=7)
    res = linial_coloring(g)
    assert validate_coloring(g, res.colors)
    assert res.num_colors <= g.n


def test_linial_reduces_palette_when_degree_small():
    # n large relative to Delta^2 log^2: Linial must beat the trivial ids.
    g = cycle_graph(400)
    res = linial_coloring(g)
    assert res.num_colors < 400
    assert validate_coloring(g, res.colors)


def test_linial_on_edgeless():
    g = Graph.empty(10)
    res = linial_coloring(g)
    assert res.num_colors == 1
    assert validate_coloring(g, res.colors)


def test_distance2_coloring_validity():
    g = grid_graph(7, 7)
    res = distance2_coloring(g)
    assert validate_distance2_coloring(g, res.colors)


def test_distance2_distinct_within_two_hops():
    g = path_graph(6)
    res = distance2_coloring(g)
    c = res.colors
    assert c[0] != c[1] and c[0] != c[2]
    assert c[1] != c[3]


def test_validate_coloring_detects_violation():
    g = path_graph(3)
    assert not validate_coloring(g, np.array([0, 0, 1]))
    assert validate_coloring(g, np.array([0, 1, 0]))
    # Proper on G, but nodes 0 and 2 share neighbour 1.
    assert not validate_distance2_coloring(g, np.array([0, 1, 0]))
