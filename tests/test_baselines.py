"""Tests for the randomized baselines and sequential oracles."""

import numpy as np
import pytest

from greedy_oracle import greedy_mis
from repro.baselines import (
    greedy_matching,
    israeli_itai_matching,
    luby_matching_randomized,
    luby_mis_pairwise,
    luby_mis_randomized,
)
from repro.graphs import Graph, complete_graph, gnp_random_graph, star_graph
from repro.verify import verify_matching_pairs, verify_mis_nodes


# --------------------------------------------------------------------- #
# greedy oracles
# --------------------------------------------------------------------- #


def test_greedy_mis_correct(any_graph):
    assert verify_mis_nodes(any_graph, greedy_mis(any_graph))


def test_greedy_matching_correct(any_graph):
    assert verify_matching_pairs(any_graph, greedy_matching(any_graph))


def test_greedy_mis_lexicographic_star_takes_hub():
    g = star_graph(5)
    assert greedy_mis(g).tolist() == [0]  # hub first blocks all leaves


# --------------------------------------------------------------------- #
# randomized Luby variants
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_luby_mis_randomized_correct(seed):
    g = gnp_random_graph(80, 0.1, seed=7)
    res = luby_mis_randomized(g, seed=seed)
    assert verify_mis_nodes(g, res.solution)
    assert res.iterations >= 1
    assert len(res.edge_trace) == res.iterations


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_luby_mis_pairwise_correct(seed):
    g = gnp_random_graph(80, 0.1, seed=8)
    res = luby_mis_pairwise(g, seed=seed)
    assert verify_mis_nodes(g, res.solution)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_luby_matching_correct(seed):
    g = gnp_random_graph(80, 0.1, seed=9)
    res = luby_matching_randomized(g, seed=seed)
    assert verify_matching_pairs(g, res.solution)


def test_luby_iterations_logarithmic():
    """O(log n) iterations in practice on dense-ish inputs."""
    g = gnp_random_graph(300, 0.05, seed=10)
    res = luby_mis_randomized(g, seed=0)
    assert res.iterations <= 6 * np.log2(g.m + 2)


def test_luby_edge_trace_decreasing():
    g = gnp_random_graph(120, 0.08, seed=11)
    res = luby_mis_randomized(g, seed=1)
    trace = list(res.edge_trace)
    assert all(a >= b for a, b in zip(trace, trace[1:]))


def test_luby_pairwise_vs_full_similar_iterations():
    """Luby's observation: pairwise independence costs ~nothing."""
    g = gnp_random_graph(250, 0.05, seed=12)
    full = np.mean([luby_mis_randomized(g, seed=s).iterations for s in range(3)])
    pair = np.mean([luby_mis_pairwise(g, seed=s).iterations for s in range(3)])
    assert pair <= 3 * full + 2


def test_luby_on_empty_and_trivial():
    g = Graph.empty(5)
    res = luby_mis_randomized(g, seed=0)
    assert res.solution.tolist() == [0, 1, 2, 3, 4]
    assert res.iterations == 0


# --------------------------------------------------------------------- #
# Israeli-Itai
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", [0, 1])
def test_israeli_itai_correct(seed):
    g = gnp_random_graph(80, 0.1, seed=13)
    res = israeli_itai_matching(g, seed=seed)
    assert verify_matching_pairs(g, res.solution)
    assert res.rounds == 2 * res.iterations


def test_israeli_itai_complete_graph():
    g = complete_graph(20)
    res = israeli_itai_matching(g, seed=3)
    assert verify_matching_pairs(g, res.solution)
    assert res.solution.shape[0] == 10  # perfect matching on K20
