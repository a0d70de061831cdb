"""Tests for the derandomized Luby selection steps (Sections 3.3, 4.3)."""

import numpy as np
import pytest

from repro.core import (
    Params,
    good_nodes_matching,
    good_nodes_mis,
    luby_matching_step,
    luby_mis_step,
    sparsify_edges,
    sparsify_nodes,
)
from repro.core.luby_step import first_k_arcs
from repro.graphs import gnp_random_graph
from repro.mpc import MPCContext
from repro.verify import is_independent_set, is_matching


def setup_matching(g, params=None):
    params = params or Params()
    good = good_nodes_matching(g, params)
    ctx = MPCContext(n=g.n, m=g.m, eps=params.eps, space_factor=params.space_factor)
    fid: list[str] = []
    spars = sparsify_edges(g, good, params, ctx, fid)
    return good, spars, ctx, fid, params


def setup_mis(g, params=None):
    params = params or Params()
    good = good_nodes_mis(g, params)
    ctx = MPCContext(n=g.n, m=g.m, eps=params.eps, space_factor=params.space_factor)
    fid: list[str] = []
    spars = sparsify_nodes(g, good, params, ctx, fid)
    return good, spars, ctx, fid, params


# --------------------------------------------------------------------- #
# first_k_arcs helper
# --------------------------------------------------------------------- #


def test_first_k_arcs_caps_per_group():
    groups = np.array([0, 0, 0, 1, 1, 2])
    units = np.array([10, 11, 12, 20, 21, 30])
    g2, u2 = first_k_arcs(groups, units, 2)
    assert (g2 == 0).sum() == 2
    assert (g2 == 1).sum() == 2
    assert (g2 == 2).sum() == 1


def test_first_k_arcs_stable_prefix():
    groups = np.array([5, 5, 5])
    units = np.array([1, 2, 3])
    _, u2 = first_k_arcs(groups, units, 2)
    assert u2.tolist() == [1, 2]


def test_first_k_arcs_empty():
    g2, u2 = first_k_arcs(np.array([], dtype=int), np.array([], dtype=int), 3)
    assert g2.size == 0 and u2.size == 0


# --------------------------------------------------------------------- #
# matching step
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matching_step_returns_valid_matching(seed):
    g = gnp_random_graph(80, 0.1, seed=seed)
    good, spars, ctx, fid, params = setup_matching(g)
    eids, info = luby_matching_step(g, spars.mask, good, params, ctx, fid)
    mask = np.zeros(g.m, dtype=bool)
    mask[eids] = True
    assert is_matching(g, mask)
    assert eids.size > 0


def test_matching_step_meets_paper_target():
    """Lemma 13: achievable weight >= W_B / 109 (scan target satisfied)."""
    g = gnp_random_graph(80, 0.1, seed=4)
    good, spars, ctx, fid, params = setup_matching(g)
    _, info = luby_matching_step(g, spars.mask, good, params, ctx, fid)
    assert info.selection.satisfied
    assert info.selection.value >= info.target


def test_matching_step_matched_edges_in_e_star():
    g = gnp_random_graph(60, 0.15, seed=5)
    good, spars, ctx, fid, params = setup_matching(g)
    eids, _ = luby_matching_step(g, spars.mask, good, params, ctx, fid)
    assert np.all(spars.mask[eids])


def test_matching_step_rejects_empty_estar():
    g = gnp_random_graph(30, 0.2, seed=6)
    good, spars, ctx, fid, params = setup_matching(g)
    with pytest.raises(ValueError):
        luby_matching_step(g, np.zeros(g.m, dtype=bool), good, params, ctx, fid)


def test_matching_step_charges_gather_and_seed():
    g = gnp_random_graph(60, 0.15, seed=7)
    good, spars, ctx, fid, params = setup_matching(g)
    before = dict(ctx.by_category)
    luby_matching_step(g, spars.mask, good, params, ctx, fid)
    assert ctx.by_category["luby_gather"] > before.get("luby_gather", 0)
    assert ctx.by_category["luby_seed"] > before.get("luby_seed", 0)


def test_matching_step_isolated_estar_edge_always_matched():
    """An E*-edge of E*-degree 0 is a z-local-minimum trivially (Lemma 13
    first case)."""
    from repro.graphs import Graph

    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    params = Params()
    good = good_nodes_matching(g, params)
    ctx = MPCContext(n=4, m=2)
    e_star = np.ones(2, dtype=bool)
    eids, _ = luby_matching_step(g, e_star, good, params, ctx, [])
    assert set(eids.tolist()) == {0, 1}


def test_matching_step_deterministic():
    g = gnp_random_graph(60, 0.15, seed=8)
    a = luby_matching_step(g, *_sel_args(g))[0]
    b = luby_matching_step(g, *_sel_args(g))[0]
    assert np.array_equal(a, b)


def _sel_args(g):
    good, spars, ctx, fid, params = setup_matching(g)
    return spars.mask, good, params, ctx, fid


# --------------------------------------------------------------------- #
# MIS step
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mis_step_returns_independent_set(seed):
    g = gnp_random_graph(80, 0.1, seed=seed)
    good, spars, ctx, fid, params = setup_mis(g)
    i_mask, info = luby_mis_step(g, spars.mask, good, params, ctx, fid)
    assert is_independent_set(g, i_mask)
    assert i_mask.any()


def test_mis_step_i_subset_of_q_prime():
    g = gnp_random_graph(60, 0.15, seed=4)
    good, spars, ctx, fid, params = setup_mis(g)
    i_mask, _ = luby_mis_step(g, spars.mask, good, params, ctx, fid)
    assert np.all(~i_mask | spars.mask)


def test_mis_step_meets_paper_target():
    """Lemma 21: achievable covered weight >= 0.01 delta W_B."""
    g = gnp_random_graph(80, 0.1, seed=5)
    good, spars, ctx, fid, params = setup_mis(g)
    _, info = luby_mis_step(g, spars.mask, good, params, ctx, fid)
    assert info.selection.satisfied
    assert info.selection.value >= info.target


def test_mis_step_isolated_q_node_joins():
    """A Q'-node with no Q'-neighbour joins I (Lemma 21 first case)."""
    from repro.graphs import Graph

    g = Graph.from_edges(3, [(0, 1)])  # node 2 isolated
    params = Params()
    good = good_nodes_mis(g, params)
    ctx = MPCContext(n=3, m=1)
    q = np.array([True, False, True])  # 0 has no Q'-neighbour, 2 isolated
    i_mask, _ = luby_mis_step(g, q, good, params, ctx, [])
    assert i_mask[0] and i_mask[2]


def test_mis_step_rejects_empty_q():
    g = gnp_random_graph(30, 0.2, seed=6)
    good, spars, ctx, fid, params = setup_mis(g)
    with pytest.raises(ValueError):
        luby_mis_step(g, np.zeros(g.n, dtype=bool), good, params, ctx, fid)


def test_mis_step_deterministic():
    g = gnp_random_graph(60, 0.15, seed=9)

    def run():
        good, spars, ctx, fid, params = setup_mis(g)
        return luby_mis_step(g, spars.mask, good, params, ctx, fid)[0]

    assert np.array_equal(run(), run())


@pytest.mark.parametrize("problem, n", [("mis", 200), ("matching", 64)])
def test_scan_targets_meet_the_existence_argument(problem, n, monkeypatch):
    """Where the family can be enumerated, every Luby step's target is at
    most its objective's exact mean over all seeds, so some seed meets it.

    The steps hash with the pairwise family over the smallest field
    (``make_family(u, k=2, min_q=5)``, at most 251^2 seeds here: the mis
    universe is n = 200 ids, the matching one m <= 247 edge ids).
    """
    import repro.core.luby_step as luby_step
    import repro.models.phase as phase
    from repro.api import SolveRequest, solve
    from repro.graphs.streaming import gnp_block_graph
    from repro.hashing.kwise import make_family

    monkeypatch.setattr(
        luby_step,
        "make_product_family",
        lambda universe, k, min_q: make_family(universe, k=2, min_q=5),
    )
    captured = []
    select = phase.select_seed_batch

    def spy(family_size, objective, **search):
        captured.append((family_size, objective, search["target"]))
        return select(family_size, objective, **search)

    monkeypatch.setattr(phase, "select_seed_batch", spy)
    g = gnp_block_graph(n, 8 / n, 1)
    assert solve(SolveRequest(problem, graph=g, force="general")).verified
    assert captured
    for family_size, objective, target in captured:
        assert family_size <= 251**2
        total = sum(
            objective(np.arange(lo, min(lo + 4096, family_size), dtype=np.int64)).sum()
            for lo in range(0, family_size, 4096)
        )
        assert total / family_size >= target
