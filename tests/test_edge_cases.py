"""Failure injection and edge cases across the stack.

Covers the guard rails: slack escalation under impossible budgets, key-space
guards, degenerate graphs, parameter validation, dispatch corner cases.
"""

import numpy as np
import pytest

from repro.core import (
    Params,
    deterministic_maximal_matching,
    deterministic_mis,
    good_nodes_matching,
    sparsify_edges,
)
from repro.core.api import uses_lowdeg_path
from repro.core.stage import MachineGroupSpec
from repro.graphs import Graph, complete_graph, gnp_random_graph, star_graph
from repro.mpc import MPCContext, chunk_items_by_group
from repro.verify import verify_matching_pairs, verify_mis_nodes


# --------------------------------------------------------------------- #
# Params validation
# --------------------------------------------------------------------- #


def test_params_rejects_bad_eps():
    with pytest.raises(ValueError):
        Params(eps=0.0)
    with pytest.raises(ValueError):
        Params(eps=1.5)


def test_params_rejects_bad_delta():
    with pytest.raises(ValueError):
        Params(eps=0.5, delta=0.6)  # delta > eps


def test_params_rejects_odd_c():
    with pytest.raises(ValueError):
        Params(c=3)
    with pytest.raises(ValueError):
        Params(c=5)


@pytest.mark.parametrize(
    "field, value",
    [
        ("c", 4.0),
        ("c", "4"),
        ("max_scan_trials", -5),
        ("max_scan_trials", 0),
        ("max_scan_trials", 2.5),
        ("max_slack_escalations", -1),
        ("max_slack_escalations", True),
        ("target_safety", float("nan")),
        ("target_safety", 0.0),
        ("space_factor", -1.0),
        ("space_factor", float("inf")),
        ("total_factor", 0),
        ("total_factor", "16"),
        ("min_q", 1),
        ("min_q", 2**31),
        ("min_q", 257.0),
    ],
)
def test_params_rejects_bad_values(field, value):
    """A value the solvers cannot run with is refused at construction,
    naming its field, not met mid-solve or run with silently."""
    with pytest.raises(ValueError, match=field):
        Params(**{field: value})


def test_params_with_update():
    p = Params().with_(eps=0.75)
    assert p.eps == 0.75
    assert p.delta_value == pytest.approx(0.75 / 8)


def test_params_derived_quantities_consistent():
    p = Params(eps=0.5)
    n = 4096
    assert p.chunk_size(n) == int(np.ceil(n ** (4 * p.delta_value)))
    assert p.sample_prob(n) == pytest.approx(n ** (-p.delta_value))
    assert p.degree_cap(n) == pytest.approx(2 * n ** (4 * p.delta_value))


# --------------------------------------------------------------------- #
# slack escalation (failure injection)
# --------------------------------------------------------------------- #


def test_slack_escalation_records_fidelity_events():
    """With an absurdly small scan budget, the stage search must escalate
    (and record it) instead of silently failing."""
    g = complete_graph(40)
    params = Params(max_scan_trials=1, max_slack_escalations=2)
    good = good_nodes_matching(g, params)
    ctx = MPCContext(n=g.n, m=g.m, eps=params.eps, space_factor=params.space_factor)
    fid: list[str] = []
    res = sparsify_edges(g, good, params, ctx, fid)
    assert res.mask.any()  # still produces a usable E*
    assert any("escalat" in e for e in fid)


def test_escalation_exhaustion_is_not_silent():
    g = complete_graph(40)
    params = Params(max_scan_trials=1, max_slack_escalations=0)
    good = good_nodes_matching(g, params)
    ctx = MPCContext(n=g.n, m=g.m, eps=params.eps, space_factor=params.space_factor)
    fid: list[str] = []
    sparsify_edges(g, good, params, ctx, fid)
    assert any("exhausted" in e or "escalat" in e for e in fid)


# --------------------------------------------------------------------- #
# stage spec validation
# --------------------------------------------------------------------- #


def test_machine_group_spec_shape_checks():
    grouping = chunk_items_by_group(np.array([0, 0, 1]), 2)
    with pytest.raises(ValueError):
        MachineGroupSpec(
            name="bad", grouping=grouping, unit_ids=np.array([1, 2])
        )
    with pytest.raises(ValueError):
        MachineGroupSpec(
            name="bad",
            grouping=grouping,
            unit_ids=np.array([1, 2, 3]),
            weights=np.array([0.5]),
        )


def test_node_level_spec_is_one_machine_per_group():
    groups = np.array([7, 4, 9, 7, 4, 7])
    chunk = MachineGroupSpec(
        name="t", grouping=chunk_items_by_group(groups, 2), unit_ids=np.arange(6)
    )
    spec = chunk.node_twin("t/node")
    assert spec.twin_of is chunk and chunk.twin_of is None
    assert spec.grouping.num_machines == 3
    assert spec.grouping.group_of_machine.tolist() == [4, 7, 9]
    assert spec.grouping.loads.tolist() == [2, 3, 1]
    assert spec.grouping.machine_of_item.tolist() == [1, 0, 2, 1, 0, 1]


# --------------------------------------------------------------------- #
# degenerate graphs
# --------------------------------------------------------------------- #


def test_two_isolated_nodes():
    g = Graph.empty(2)
    assert deterministic_mis(g).independent_set.tolist() == [0, 1]


def test_self_loop_only_input_becomes_edgeless():
    g = Graph.from_edges(3, [(1, 1)])
    assert g.m == 0
    assert deterministic_mis(g).independent_set.tolist() == [0, 1, 2]


def test_disconnected_components_handled():
    g = Graph.from_edges(10, [(0, 1), (2, 3), (5, 6), (6, 7), (7, 5)])
    mi = deterministic_mis(g)
    mm = deterministic_maximal_matching(g)
    assert verify_mis_nodes(g, mi.independent_set)
    assert verify_matching_pairs(g, mm.pairs)
    assert 4 in mi.independent_set  # isolated nodes always join
    assert 8 in mi.independent_set and 9 in mi.independent_set


def test_star_extreme_degree_skew():
    """Hub in the top degree class, leaves in class 1."""
    g = star_graph(200)
    mi = deterministic_mis(g)
    assert verify_mis_nodes(g, mi.independent_set)
    # Either the hub alone or all the leaves.
    assert len(mi.independent_set) in (1, 199)


def test_double_star():
    """Two hubs sharing an edge: adversarial for degree classes."""
    edges = [(0, 1)]
    edges += [(0, i) for i in range(2, 60)]
    edges += [(1, i) for i in range(60, 118)]
    g = Graph.from_edges(118, edges)
    mi = deterministic_mis(g)
    mm = deterministic_maximal_matching(g)
    assert verify_mis_nodes(g, mi.independent_set)
    assert verify_matching_pairs(g, mm.pairs)


# --------------------------------------------------------------------- #
# dispatch corner cases
# --------------------------------------------------------------------- #


def test_dispatch_edgeless_graph_prefers_lowdeg():
    assert uses_lowdeg_path(Graph.empty(5), Params())


def test_dispatch_accounts_for_line_graph_degree():
    """Matching dispatch must consider Delta(L(G)) = 2 Delta - 2."""
    params = Params()
    g = gnp_random_graph(100, 0.08, seed=1)
    mis_path = uses_lowdeg_path(g, params, for_matching=False)
    mm_path = uses_lowdeg_path(g, params, for_matching=True)
    # The matching rule is at least as strict.
    assert (not mis_path) or mm_path in (True, False)
    if mm_path:
        assert mis_path


def test_space_factor_controls_dispatch():
    g = gnp_random_graph(100, 0.08, seed=2)
    roomy = Params(space_factor=10_000.0)
    tight = Params(space_factor=4.0)
    assert uses_lowdeg_path(g, roomy)
    assert not uses_lowdeg_path(g, tight)
