"""Tests for the solution checkers and the analysis helpers."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis import (
    fit_geometric_decay,
    fit_linear,
    lowdeg_round_bound,
    matching_iteration_bound,
    mis_iteration_bound,
    render_series,
    render_table,
    seed_bits_colors,
    seed_bits_ids,
)
from repro.graphs import Graph, gnp_random_graph, path_graph
from repro.mpc import MPCContext
from repro.verify import (
    is_independent_set,
    is_matching,
    is_maximal_independent_set,
    is_maximal_matching,
    verify_matching_pairs,
    verify_mis_nodes,
)


# --------------------------------------------------------------------- #
# verify
# --------------------------------------------------------------------- #


def test_independent_set_checks():
    g = path_graph(4)
    assert is_independent_set(g, np.array([True, False, True, False]))
    assert not is_independent_set(g, np.array([True, True, False, False]))


def test_maximal_independent_set_checks():
    g = path_graph(4)
    assert is_maximal_independent_set(g, np.array([True, False, True, False]))
    # independent but not maximal: node 3 uncovered
    assert not is_maximal_independent_set(g, np.array([True, False, False, False]))


def test_matching_checks():
    g = path_graph(4)  # edges (0,1),(1,2),(2,3)
    assert is_matching(g, np.array([True, False, True]))
    assert not is_matching(g, np.array([True, True, False]))


def test_maximal_matching_checks():
    g = path_graph(4)
    assert is_maximal_matching(g, np.array([True, False, True]))
    assert not is_maximal_matching(g, np.array([True, False, False]))
    assert is_maximal_matching(g, np.array([False, True, False]))


def test_verify_matching_pairs_rejects_non_edges():
    g = path_graph(4)
    assert not verify_matching_pairs(g, np.array([[0, 2]]))


def test_verify_matching_pairs_rejects_overlap():
    g = path_graph(4)
    assert not verify_matching_pairs(g, np.array([[0, 1], [1, 2]]))


def verify_matching_pairs_reference(g: Graph, pairs) -> bool:
    """The set-based checker: every pair in a Python set of all m edges,
    pairwise disjoint, and maximal."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    edge_set = set(zip(g.edges_u.tolist(), g.edges_v.tolist()))
    for a, b in pairs.tolist():
        if (min(a, b), max(a, b)) not in edge_set:
            return False
    flat = pairs.ravel()
    if np.unique(flat).size != flat.size:
        return False
    saturated = np.zeros(g.n, dtype=bool)
    saturated[flat] = True
    return bool(np.all(saturated[g.edges_u] | saturated[g.edges_v]))


@st.composite
def graphs_with_pair_sets(draw):
    """A small graph plus pairs built from its greedy maximal matching:
    some dropped, some reversed, plus extras that may be non-edges,
    self-pairs, negative or out-of-range ids, or repeat an endpoint."""
    n = draw(st.integers(0, 12))
    node = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=30)) if n else []
    g = Graph.from_edges(n, edges)
    matched: set[int] = set()
    pairs = []
    for u, v in g.edge_array().tolist():
        if u not in matched and v not in matched:
            matched |= {u, v}
            pairs.append([v, u] if draw(st.booleans()) else [u, v])
    pairs = [p for p in pairs if draw(st.integers(0, 5))]  # drop ~1 in 6
    extra_id = st.integers(-2, n + 2)
    pairs += draw(st.lists(st.lists(extra_id, min_size=2, max_size=2), max_size=2))
    if pairs and draw(st.booleans()):
        pairs.append(list(draw(st.sampled_from(pairs))))  # a repeated pair
    order = draw(st.permutations(range(len(pairs))))
    return g, np.array([pairs[i] for i in order], dtype=np.int64).reshape(-1, 2)


@given(graphs_with_pair_sets())
def test_verify_matching_pairs_matches_set_reference(case):
    g, pairs = case
    assert verify_matching_pairs(g, pairs) == verify_matching_pairs_reference(g, pairs)


def test_verify_matching_pairs_rejects_bad_ids_without_raising():
    g = path_graph(4)
    # (-1, 5) has the key -1 * 4 + 5 = 1 of the real edge (0, 1).
    for bad in ([[0, 4]], [[-1, 0]], [[2, 2]], [[3, 2], [0, 99]], [[-1, 5], [2, 3]]):
        assert not verify_matching_pairs(g, np.array(bad))
    assert verify_matching_pairs(g, np.array([[1, 0], [3, 2]]))
    assert not verify_matching_pairs(g, np.empty((0, 2), dtype=np.int64))
    assert verify_matching_pairs(Graph.empty(3), np.empty((0, 2), dtype=np.int64))
    assert not verify_matching_pairs(Graph.empty(3), np.array([[0, 1]]))


def test_verify_mis_nodes_rejects_out_of_range():
    g = path_graph(4)
    assert not verify_mis_nodes(g, np.array([7]))


def test_checkers_agree_with_networkx():
    g = gnp_random_graph(40, 0.15, seed=1)
    nxg = g.to_networkx()
    mis = nx.maximal_independent_set(nxg, seed=0)
    assert verify_mis_nodes(g, np.array(sorted(mis)))
    mm = nx.maximal_matching(nxg)
    pairs = np.array([[u, v] for u, v in mm])
    assert verify_matching_pairs(g, pairs)


def test_empty_graph_edge_cases():
    g = Graph.empty(3)
    assert is_maximal_independent_set(g, np.ones(3, dtype=bool))
    assert not is_maximal_independent_set(g, np.zeros(3, dtype=bool))
    assert is_maximal_matching(g, np.zeros(0, dtype=bool))


# --------------------------------------------------------------------- #
# analysis.theory
# --------------------------------------------------------------------- #


def test_iteration_bounds_logarithmic():
    b1 = matching_iteration_bound(1000, 0.0625)
    b2 = matching_iteration_bound(1000**2, 0.0625)
    assert b2 == pytest.approx(2 * b1, rel=0.01)  # log-linear in log m


def test_mis_bound_bigger_than_matching():
    # delta^2/400 < delta/536 for delta < 400/536... at delta = 1/16 MIS is slower.
    assert mis_iteration_bound(1000, 0.0625) > matching_iteration_bound(1000, 0.0625)


def test_iteration_bounds_trivial_m():
    assert matching_iteration_bound(1, 0.1) == 1.0
    assert mis_iteration_bound(0, 0.1) == 1.0


def test_lowdeg_round_bound_monotone():
    assert lowdeg_round_bound(10**6, 8) > lowdeg_round_bound(10**6, 4)
    assert lowdeg_round_bound(10**9, 4) > lowdeg_round_bound(10**3, 4)


def test_space_formulas():
    ctx = MPCContext(n=256, m=50, eps=0.5, space_factor=32, total_factor=16)
    assert ctx.S == 32 * 16
    # the enforced total budget is 16 (m + n^{1+eps} + S), S term included
    assert ctx.total_space_budget == 16 * (50 + 256**1.5 + ctx.S) > 50


def test_seed_bits():
    assert seed_bits_ids(1024) == 20
    assert seed_bits_colors(16) == 8
    assert seed_bits_colors(16) < seed_bits_ids(10**6)


# --------------------------------------------------------------------- #
# analysis.progress
# --------------------------------------------------------------------- #


def test_fit_linear_exact():
    fit = fit_linear([1, 2, 3, 4], [3, 5, 7, 9])
    assert fit.slope == pytest.approx(2.0)
    assert fit.intercept == pytest.approx(1.0)
    assert fit.r2 == pytest.approx(1.0)
    assert fit.predict(10) == pytest.approx(21.0)


def test_fit_linear_requires_two_points():
    with pytest.raises(ValueError):
        fit_linear([1], [2])


@given(
    st.floats(-5, 5),
    st.floats(-10, 10),
    st.lists(st.floats(0, 100), min_size=3, max_size=20, unique=True),
)
def test_fit_linear_recovers_exact_lines(slope, intercept, xs):
    ys = [slope * x + intercept for x in xs]
    fit = fit_linear(xs, ys)
    assert fit.slope == pytest.approx(slope, abs=1e-6)
    assert fit.intercept == pytest.approx(intercept, abs=1e-5)


def test_fit_geometric_decay_exact():
    trace = [1000, 500, 250, 125]
    assert fit_geometric_decay(trace) == pytest.approx(0.5)


def test_fit_geometric_decay_short_trace():
    assert fit_geometric_decay([10]) == 0.0
    assert fit_geometric_decay([]) == 0.0


# --------------------------------------------------------------------- #
# analysis.tables
# --------------------------------------------------------------------- #


def test_render_table_contains_data():
    out = render_table("T", ["a", "bb"], [[1, 2.5], [30, 0.001]], footnote="note")
    assert "== T ==" in out
    assert "bb" in out
    assert "30" in out
    assert "note" in out


def test_render_table_alignment():
    out = render_table("T", ["x"], [[1], [100]])
    lines = out.splitlines()
    assert len(lines[2]) == len(lines[3])  # rows equally wide


def test_render_series():
    out = render_series("S", [1, 2], [10.0, 20.0], "n", "rounds")
    assert "n=" in out and "rounds=" in out and "#" in out
