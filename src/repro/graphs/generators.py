"""Deterministic-by-seed graph generators for experiments and tests.

Every generator takes an explicit integer ``seed`` (where randomness is
involved) and returns a :class:`~repro.graphs.graph.Graph`.  Workload intent:

* ``gnp_random_graph`` -- the classic sweep workload for the O(log n) bounds.
* ``power_law_graph`` (preferential attachment) -- skew-degree inputs where
  the degree-class machinery (sets ``C_i``) is exercised non-trivially.
* ``random_regular_graph`` / ``bounded_degree_graph`` -- the Section-5
  low-degree regime (``Delta <= n^delta``).
* ``random_bipartite_graph`` -- matching-flavoured workloads.
* structured graphs (path, cycle, star, complete, grid, tree, caterpillar,
  hypercube) -- edge cases and adversarial shapes for tests.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

# Re-exported so job specs can name it like any other generator: the
# block-sampled G(n, p) is defined (and streamed) in .streaming, but its
# identity as a generator lives in this namespace alongside the rest.
from .streaming import gnp_block_graph  # noqa: F401  (re-export)
from .streaming import (
    stream_bounded_degree_graph,
    stream_gnp_random_graph,
    stream_power_law_graph,
    stream_random_regular_graph,
)

__all__ = [
    "bounded_degree_graph",
    "caterpillar_graph",
    "complete_bipartite_graph",
    "complete_graph",
    "cycle_graph",
    "empty_graph",
    "gnp_block_graph",
    "gnp_random_graph",
    "grid_graph",
    "hypercube_graph",
    "path_graph",
    "power_law_graph",
    "random_bipartite_graph",
    "random_regular_graph",
    "random_tree",
    "star_graph",
]


def empty_graph(n: int) -> Graph:
    return Graph.empty(n)


def path_graph(n: int) -> Graph:
    if n <= 1:
        return Graph.empty(max(n, 0))
    u = np.arange(n - 1, dtype=np.int64)
    return Graph.from_edges(n, np.stack([u, u + 1], axis=1))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        return path_graph(n)
    u = np.arange(n, dtype=np.int64)
    v = (u + 1) % n
    return Graph.from_edges(n, np.stack([u, v], axis=1))


def star_graph(n: int) -> Graph:
    """Hub 0 connected to ``n - 1`` leaves."""
    if n <= 1:
        return Graph.empty(max(n, 0))
    leaves = np.arange(1, n, dtype=np.int64)
    centre = np.zeros(n - 1, dtype=np.int64)
    return Graph.from_edges(n, np.stack([centre, leaves], axis=1))


def complete_graph(n: int) -> Graph:
    iu = np.triu_indices(n, k=1)
    return Graph.from_edges(n, np.stack([iu[0], iu[1]], axis=1))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    left = np.repeat(np.arange(a, dtype=np.int64), b)
    right = a + np.tile(np.arange(b, dtype=np.int64), a)
    return Graph.from_edges(a + b, np.stack([left, right], axis=1))


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols lattice; node ``r * cols + c``."""
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    horiz = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)
    vert = np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1)
    return Graph.from_edges(rows * cols, np.concatenate([horiz, vert]))


def hypercube_graph(dim: int) -> Graph:
    """dim-dimensional boolean hypercube (n = 2^dim, Delta = dim)."""
    n = 1 << dim
    nodes = np.arange(n, dtype=np.int64)
    edges = []
    for d in range(dim):
        mask = (nodes >> d) & 1 == 0
        u = nodes[mask]
        edges.append(np.stack([u, u | (1 << d)], axis=1))
    return Graph.from_edges(n, np.concatenate(edges) if edges else [])


def caterpillar_graph(spine: int, legs: int) -> Graph:
    """Path of ``spine`` nodes, each with ``legs`` pendant leaves."""
    edges = []
    if spine > 1:
        u = np.arange(spine - 1, dtype=np.int64)
        edges.append(np.stack([u, u + 1], axis=1))
    n = spine
    for s in range(spine):
        leaf_ids = np.arange(n, n + legs, dtype=np.int64)
        edges.append(np.stack([np.full(legs, s, dtype=np.int64), leaf_ids], axis=1))
        n += legs
    return Graph.from_edges(n, np.concatenate(edges) if edges else [])


def gnp_random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p): one uniform draw per upper-triangle pair.

    Built from :func:`~repro.graphs.streaming.stream_gnp_random_graph`,
    which consumes the draws in fixed-size chunks, so peak memory is
    O(chunk + m) rather than an O(n^2) mask; the work is still O(n^2)
    draws (use ``gnp_block_graph`` for large ``n``).
    """
    return Graph.from_edges(
        max(n, 0), np.concatenate(list(stream_gnp_random_graph(n, p, seed)))
    )


def random_tree(n: int, seed: int) -> Graph:
    """Uniform-ish random tree: node i attaches to a uniform earlier node."""
    if n <= 1:
        return Graph.empty(max(n, 0))
    rng = np.random.default_rng(seed)
    children = np.arange(1, n, dtype=np.int64)
    parents = (rng.random(n - 1) * children).astype(np.int64)
    return Graph.from_edges(n, np.stack([parents, children], axis=1))


def random_bipartite_graph(a: int, b: int, p: float, seed: int) -> Graph:
    """Bipartite G(a, b, p): left ids [0, a), right ids [a, a+b)."""
    rng = np.random.default_rng(seed)
    left = np.repeat(np.arange(a, dtype=np.int64), b)
    right = a + np.tile(np.arange(b, dtype=np.int64), a)
    mask = rng.random(left.size) < p
    return Graph.from_edges(a + b, np.stack([left[mask], right[mask]], axis=1))


def random_regular_graph(n: int, d: int, seed: int) -> Graph:
    """Approximately d-regular graph via repeated stub matching.

    Self-loops/duplicates from the pairing are dropped, so degrees can fall
    slightly below ``d``; max degree never exceeds ``d``.  (Exact regularity
    is irrelevant to the algorithms; the bound ``Delta <= d`` is what the
    Section-5 regime needs.)  Built from
    :func:`~repro.graphs.streaming.stream_random_regular_graph`.
    """
    return Graph.from_edges(
        n, np.concatenate(list(stream_random_regular_graph(n, d, seed)))
    )


def bounded_degree_graph(n: int, max_deg: int, p_fill: float, seed: int) -> Graph:
    """Random graph with a hard degree cap (Section-5 workloads).

    Greedy edge insertion from a shuffled candidate stream, rejecting edges
    that would exceed ``max_deg`` at either endpoint.  ``p_fill`` in (0, 1]
    controls density relative to the cap.  Built from
    :func:`~repro.graphs.streaming.stream_bounded_degree_graph`.
    """
    return Graph.from_edges(
        n,
        np.concatenate(list(stream_bounded_degree_graph(n, max_deg, p_fill, seed))),
    )


def power_law_graph(n: int, attach: int, seed: int) -> Graph:
    """Barabasi-Albert style preferential attachment (``attach`` edges/node).

    Produces the heavy-tailed degree distributions that spread vertices
    across many degree classes ``C_i`` -- the regime where the good-node
    selection (Corollary 8 / 16) does real work.  Built from
    :func:`~repro.graphs.streaming.stream_power_law_graph`; for
    ``n <= attach + 1`` the result is the complete graph.
    """
    return Graph.from_edges(
        max(n, 0), np.concatenate(list(stream_power_law_graph(n, attach, seed)))
    )
