"""Tests for the CONGESTED CLIQUE substrate and algorithms (Corollary 2)."""

import numpy as np
import pytest

from repro.cclique import (
    CongestedCliqueContext,
    cc_maximal_matching,
    cc_mis,
)
from repro.graphs import complete_graph, gnp_random_graph, power_law_graph
from repro.verify import verify_matching_pairs, verify_mis_nodes


# --------------------------------------------------------------------- #
# model
# --------------------------------------------------------------------- #


def test_context_word_bits():
    ctx = CongestedCliqueContext(n=1024)
    assert ctx.word_bits >= 10


def test_collect_graph_guard():
    ctx = CongestedCliqueContext(n=10)
    ctx.charge_collect_graph(10)
    with pytest.raises(ValueError):
        ctx.charge_collect_graph(11)


def test_charges_accumulate():
    ctx = CongestedCliqueContext(n=5)
    ctx.charge_broadcast()
    ctx.charge_aggregate()
    ctx.charge("x", 3)
    assert ctx.rounds == 5


# --------------------------------------------------------------------- #
# cc_mis
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", [1, 2])
def test_cc_mis_correct(seed):
    g = gnp_random_graph(100, 0.15, seed=seed)
    res = cc_mis(g)
    assert verify_mis_nodes(g, res.solution)


def test_cc_mis_correct_on_clique():
    g = complete_graph(40)
    res = cc_mis(g)
    assert verify_mis_nodes(g, res.solution)
    assert len(res.solution) == 1


def test_cc_mis_small_graph_collect_only():
    """|E| <= n from the start: zero phases, one collect."""
    g = gnp_random_graph(60, 0.02, seed=3)
    assert g.m <= g.n
    res = cc_mis(g)
    assert res.phases == 0
    assert verify_mis_nodes(g, res.solution)


def test_cc_mis_phases_logarithmic_in_delta():
    """Phases ~ O(log Delta): m decays by a constant factor to below n."""
    g = gnp_random_graph(120, 0.4, seed=4)
    res = cc_mis(g)
    assert res.phases <= 4 * np.log2(g.max_degree() + 2)


def test_cc_mis_ours_beats_chps():
    """T8's headline: O(log Delta) vs O(log Delta log n) rounds."""
    g = gnp_random_graph(150, 0.2, seed=5)
    ours = cc_mis(g, charge_mode="ours")
    chps = cc_mis(g, charge_mode="chps")
    assert np.array_equal(ours.solution, chps.solution)  # same algorithm
    assert ours.rounds < chps.rounds
    assert chps.rounds >= 5 * ours.rounds  # the log n factor is real


def test_cc_mis_deterministic():
    g = gnp_random_graph(100, 0.2, seed=6)
    assert np.array_equal(cc_mis(g).solution, cc_mis(g).solution)


def test_cc_mis_rejects_bad_mode():
    with pytest.raises(ValueError):
        cc_mis(complete_graph(5), charge_mode="nope")


# --------------------------------------------------------------------- #
# cc_maximal_matching
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", [1, 2])
def test_cc_matching_correct(seed):
    g = gnp_random_graph(100, 0.15, seed=seed)
    res = cc_maximal_matching(g)
    assert verify_matching_pairs(g, res.solution)


def test_cc_matching_on_powerlaw():
    g = power_law_graph(150, 4, seed=3)
    res = cc_maximal_matching(g)
    assert verify_matching_pairs(g, res.solution)


def test_cc_matching_ours_beats_chps():
    g = gnp_random_graph(120, 0.3, seed=7)
    ours = cc_maximal_matching(g, charge_mode="ours")
    chps = cc_maximal_matching(g, charge_mode="chps")
    assert ours.rounds < chps.rounds


def test_cc_matching_rejects_bad_mode():
    with pytest.raises(ValueError):
        cc_maximal_matching(complete_graph(5), charge_mode="nope")


def test_cc_edge_trace_reaches_collect_threshold():
    g = gnp_random_graph(120, 0.3, seed=8)
    res = cc_mis(g)
    if res.collected_remainder_edges:
        assert res.collected_remainder_edges <= g.n
