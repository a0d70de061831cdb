"""Tests for the CONGEST extension (model + derandomized MIS)."""

import numpy as np
import pytest

from repro.congest import CongestContext, bfs_depth, congest_mis
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.verify import verify_mis_nodes

# --------------------------------------------------------------------- #
# model
# --------------------------------------------------------------------- #


def test_bfs_depth_path():
    assert bfs_depth(path_graph(10)) == 9


def test_bfs_depth_star():
    assert bfs_depth(star_graph(10)) <= 2


def test_bfs_depth_complete():
    assert bfs_depth(complete_graph(10)) == 1


def test_bfs_depth_disconnected_takes_max():
    g = Graph.from_edges(8, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6)])
    assert bfs_depth(g) == 4


def test_bfs_depth_edgeless():
    assert bfs_depth(Graph.empty(5)) == 0


def test_context_charges_scale_with_depth():
    shallow = CongestContext(star_graph(20))
    deep = CongestContext(path_graph(20))
    shallow.charge_seed_fix(1)
    deep.charge_seed_fix(1)
    assert deep.rounds > shallow.rounds


def test_seed_fix_bill():
    ctx = CongestContext(path_graph(5))  # depth 4
    ctx.charge_seed_fix(10)
    assert ctx.rounds == 2 * 4 * 10


# --------------------------------------------------------------------- #
# congest_mis
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("mode", ["voting", "color-compressed"])
def test_congest_mis_correct(mode):
    g = grid_graph(7, 7)
    res = congest_mis(g, mode=mode)
    assert verify_mis_nodes(g, res.independent_set)
    assert res.mode == mode


def test_congest_mis_rejects_bad_mode():
    with pytest.raises(ValueError):
        congest_mis(path_graph(4), mode="nope")


def test_congest_color_compression_saves_rounds():
    """The paper's conclusion, quantified: O(log Delta)-bit seeds beat
    O(log n)-bit seeds by the seed-length ratio per phase."""
    g = grid_graph(8, 8)
    cc = congest_mis(g, mode="color-compressed")
    vt = congest_mis(g, mode="voting")
    assert cc.seed_bits_per_phase < vt.seed_bits_per_phase
    assert cc.rounds < vt.rounds


def test_congest_rounds_scale_with_depth():
    shallow = gnp_random_graph(64, 0.2, seed=3)  # small diameter
    deep = cycle_graph(64)  # diameter n/2
    rs = congest_mis(shallow, mode="voting")
    rd = congest_mis(deep, mode="voting")
    assert rd.bfs_depth > rs.bfs_depth
    # Per-phase cost dominated by D: deep graph pays much more per phase.
    assert rd.rounds / max(rd.phases, 1) > rs.rounds / max(rs.phases, 1)


def test_congest_mis_deterministic():
    g = grid_graph(6, 6)
    a = congest_mis(g)
    b = congest_mis(g)
    assert np.array_equal(a.independent_set, b.independent_set)
    assert a.rounds == b.rounds


def test_congest_mis_edgeless():
    res = congest_mis(Graph.empty(5))
    assert res.independent_set.tolist() == [0, 1, 2, 3, 4]
    assert res.phases == 0


def test_congest_trace_decreasing():
    g = gnp_random_graph(80, 0.1, seed=4)
    res = congest_mis(g)
    trace = list(res.edge_trace)
    assert all(a > b for a, b in zip(trace, trace[1:])) or len(trace) <= 1


# --------------------------------------------------------------------- #
# congest matching (line-graph reduction)
# --------------------------------------------------------------------- #

from repro.congest import congest_maximal_matching  # noqa: E402
from repro.verify import is_maximal_matching  # noqa: E402


def test_congest_matching_maximal():
    g = grid_graph(6, 6)
    res = congest_maximal_matching(g)
    mask = np.zeros(g.m, dtype=bool)
    mask[res.independent_set] = True
    assert is_maximal_matching(g, mask)


def test_congest_matching_empty():
    res = congest_maximal_matching(Graph.empty(4))
    assert res.independent_set.size == 0
    assert res.rounds == 0


@pytest.mark.parametrize("g", [Graph.empty(4), path_graph(4)], ids=["edgeless", "path"])
def test_congest_matching_rejects_bad_mode(g):
    """The mode is checked before the edgeless early return, as in
    ``congest_mis``: no record carries an unknown mode."""
    with pytest.raises(ValueError, match="mode"):
        congest_maximal_matching(g, mode="bogus")


def test_congest_matching_modes_agree_on_validity():
    g = cycle_graph(30)
    for mode in ("voting", "color-compressed"):
        res = congest_maximal_matching(g, mode=mode)
        mask = np.zeros(g.m, dtype=bool)
        mask[res.independent_set] = True
        assert is_maximal_matching(g, mask)
