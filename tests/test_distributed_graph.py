"""Graph-shaped inputs on the literal engine: arc sorts and the Luby run.

Section 3.1's bookkeeping starts by sorting the arc list so that every
node's arcs sit on consecutive machines; a node's run length in the sorted
list is its degree, which is the oracle here.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import Graph, complete_graph, gnp_random_graph, star_graph
from repro.models import CapacityExceededError, SpaceExceededError
from repro.mpc import MPCEngine, distributed_sort_packed, packed_arc_plane


def sorted_arcs(g: Graph, num_machines: int, space: int) -> tuple[np.ndarray, int]:
    """Sort ``g``'s arc plane on the engine; ``(sorted arcs, rounds)``."""
    engine = MPCEngine(num_machines=num_machines, space=space)
    engine.load_balanced_packed(packed_arc_plane(g))
    rounds = distributed_sort_packed(engine)
    arcs = np.concatenate([engine.tables[""].on(m)[:, 0] for m in range(num_machines)])
    return arcs, rounds


def run_lengths(g: Graph, arcs: np.ndarray) -> np.ndarray:
    """Per-node run lengths of the sorted arcs (``src * n + dst`` keys)."""
    assert np.array_equal(arcs, np.sort(packed_arc_plane(g)))
    return np.bincount(arcs // max(g.n, 1), minlength=g.n)


def test_degrees_match_oracle():
    g = gnp_random_graph(50, 0.12, seed=1)
    arcs, rounds = sorted_arcs(g, num_machines=6, space=256)
    assert np.array_equal(run_lengths(g, arcs), g.degrees())
    assert rounds == 3  # sample sort: samples, splitters, buckets


def test_degrees_on_star():
    g = star_graph(30)
    arcs, rounds = sorted_arcs(g, num_machines=4, space=256)
    assert np.array_equal(run_lengths(g, arcs), g.degrees())
    assert rounds == 3


def test_degrees_on_complete_graph():
    g = complete_graph(16)
    arcs, _ = sorted_arcs(g, num_machines=4, space=512)
    assert np.array_equal(run_lengths(g, arcs), g.degrees())


def test_degrees_rounds_constant_in_size():
    small = gnp_random_graph(20, 0.2, seed=2)
    large = gnp_random_graph(80, 0.1, seed=2)
    _, r1 = sorted_arcs(small, num_machines=4, space=512)
    _, r2 = sorted_arcs(large, num_machines=4, space=512)
    assert r1 == r2 == 3


def test_insufficient_space_raises_model_error():
    g = complete_graph(20)  # 380 arcs
    with pytest.raises((SpaceExceededError, CapacityExceededError)):
        sorted_arcs(g, num_machines=4, space=32)


@given(st.integers(0, 10_000))
@settings(max_examples=8)
def test_degrees_hypothesis_random_graphs(seed):
    g = gnp_random_graph(25, 0.2, seed=seed)
    arcs, _ = sorted_arcs(g, num_machines=4, space=512)
    assert np.array_equal(run_lengths(g, arcs), g.degrees())


# --------------------------------------------------------------------- #
# full distributed Luby MIS on the engine
# --------------------------------------------------------------------- #

from repro.mpc import distributed_luby_mis  # noqa: E402
from repro.verify import verify_mis_nodes  # noqa: E402
from repro.graphs import cycle_graph, path_graph  # noqa: E402


@pytest.mark.parametrize(
    "make,machines,space",
    [
        (lambda: gnp_random_graph(30, 0.2, seed=1), 4, 512),
        (lambda: cycle_graph(24), 3, 256),
        (lambda: complete_graph(12), 3, 512),
        (lambda: path_graph(15), 3, 256),
        (lambda: star_graph(20), 3, 512),
    ],
)
def test_distributed_luby_correct(make, machines, space):
    g = make()
    mis, rounds, phases = distributed_luby_mis(g, machines, space)
    assert verify_mis_nodes(g, mis)
    assert phases >= 1
    assert rounds == 10 * phases  # exactly 10 engine rounds per phase


def test_distributed_luby_rounds_per_phase_constant():
    """The O(1) rounds-per-iteration claim, on real messages."""
    small = gnp_random_graph(16, 0.3, seed=2)
    large = gnp_random_graph(48, 0.12, seed=2)
    _, r1, p1 = distributed_luby_mis(small, 3, 512)
    _, r2, p2 = distributed_luby_mis(large, 5, 512)
    assert r1 / p1 == r2 / p2 == 10


def test_distributed_luby_deterministic():
    g = gnp_random_graph(30, 0.2, seed=3)
    a = distributed_luby_mis(g, 4, 512)
    b = distributed_luby_mis(g, 4, 512)
    assert np.array_equal(a[0], b[0])
    assert a[1:] == b[1:]


def test_distributed_luby_edgeless():
    g = Graph.empty(6)
    mis, rounds, phases = distributed_luby_mis(g, 2, 64)
    assert mis.tolist() == [0, 1, 2, 3, 4, 5]
    assert phases == 0
