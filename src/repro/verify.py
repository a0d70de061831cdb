"""Solution checkers: independence, maximality, matching validity.

These are the ground-truth oracles for the whole test suite.  They are
deliberately written against the raw definitions (Section 2 of the paper)
rather than reusing any algorithm code, and the networkx cross-checks give a
fully independent second implementation.
"""

from __future__ import annotations

import numpy as np

from .graphs.graph import Graph

__all__ = [
    "is_independent_set",
    "is_matching",
    "is_maximal_independent_set",
    "is_maximal_matching",
    "verify_matching_pairs",
    "verify_mis_nodes",
]


def is_independent_set(g: Graph, node_mask: np.ndarray) -> bool:
    """No edge of ``g`` has both endpoints selected."""
    mask = np.asarray(node_mask, dtype=bool)
    if mask.shape != (g.n,):
        raise ValueError("node_mask must have shape (n,)")
    if g.m == 0:
        return True
    return not bool(np.any(mask[g.edges_u] & mask[g.edges_v]))


def is_maximal_independent_set(g: Graph, node_mask: np.ndarray) -> bool:
    """Independent and not extendable: every unselected node has a selected
    neighbour."""
    mask = np.asarray(node_mask, dtype=bool)
    if not is_independent_set(g, mask):
        return False
    dominated = g.degrees_toward(mask) > 0
    return bool(np.all(mask | dominated))


def is_matching(g: Graph, edge_mask: np.ndarray) -> bool:
    """No two selected edges share an endpoint."""
    return bool(np.all(g.degrees_within(edge_mask) <= 1))


def is_maximal_matching(g: Graph, edge_mask: np.ndarray) -> bool:
    """A matching such that every edge touches a matched node."""
    mask = np.asarray(edge_mask, dtype=bool)
    if not is_matching(g, mask):
        return False
    saturated = np.zeros(g.n, dtype=bool)
    saturated[g.edges_u[mask]] = True
    saturated[g.edges_v[mask]] = True
    if g.m == 0:
        return True
    return bool(np.all(saturated[g.edges_u] | saturated[g.edges_v]))


def verify_matching_pairs(g: Graph, pairs: np.ndarray) -> bool:
    """Validate an (k, 2) endpoint-pair matching against ``g``:
    every pair is an edge, pairwise disjoint, and maximal."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    flat = pairs.ravel()
    if flat.size and (flat.min() < 0 or flat.max() >= g.n):
        return False
    # Every pair must be an actual edge, in either orientation.  Canonical
    # edges are sorted by the key u * n + v, so a binary search finds each.
    n = np.int64(g.n)
    key = pairs.min(axis=1) * n + pairs.max(axis=1)
    edge_key = g.edges_u * n + g.edges_v
    pos = np.minimum(np.searchsorted(edge_key, key), max(g.m - 1, 0))
    if key.size and (g.m == 0 or np.any(edge_key[pos] != key)):
        return False
    # Disjointness: no node in two pairs (the range check above keeps
    # every id inside the bincount).
    if flat.size and np.bincount(flat, minlength=g.n).max() > 1:
        return False
    # Maximality: every edge touches a matched node.
    saturated = np.zeros(g.n, dtype=bool)
    if flat.size:
        saturated[flat] = True
    if g.m and not np.all(saturated[g.edges_u] | saturated[g.edges_v]):
        return False
    return True


def verify_mis_nodes(g: Graph, nodes: np.ndarray) -> bool:
    """Validate a node-id array as a maximal independent set of ``g``."""
    nodes = np.asarray(nodes, dtype=np.int64)
    mask = np.zeros(g.n, dtype=bool)
    if nodes.size:
        if nodes.min() < 0 or nodes.max() >= g.n:
            return False
        mask[nodes] = True
    return is_maximal_independent_set(g, mask)
