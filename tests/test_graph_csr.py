"""CSR adjacency backend: lazy build, cache/invalidation, CSR-array rebuild."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import Graph, gnp_random_graph


@pytest.fixture
def g() -> Graph:
    return gnp_random_graph(40, 0.15, seed=11)


# --------------------------------------------------------------------- #
# Lazy build + caching
# --------------------------------------------------------------------- #


def test_csr_is_lazy_and_cached(g):
    assert not g.csr_is_built
    a = g.adjacency_csr()
    assert g.csr_is_built
    assert g.adjacency_csr() is a  # cached, not rebuilt


def test_csr_matches_adjacency(g):
    dense = g.adjacency_csr().toarray()
    expect = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edge_array().tolist():
        expect[u, v] = expect[v, u] = 1
    assert np.array_equal(dense, expect)


def test_csr_matvec_gives_degrees(g):
    ones = np.ones(g.n, dtype=np.int64)
    assert np.array_equal(g.adjacency_csr() @ ones, g.degrees())


def test_invalidate_csr_rebuilds(g):
    a = g.adjacency_csr()
    g.invalidate_csr()
    assert not g.csr_is_built
    b = g.adjacency_csr()
    assert b is not a
    assert np.array_equal(a.toarray(), b.toarray())


# --------------------------------------------------------------------- #
# Invalidate-on-mutation semantics
# --------------------------------------------------------------------- #


def test_backing_arrays_are_frozen(g):
    """In-place mutation is refused, so a cached CSR can never go stale."""
    for name in ("edges_u", "edges_v", "indptr", "indices", "arc_edge_ids"):
        arr = getattr(g, name)
        with pytest.raises(ValueError):
            arr[0] = 0


def test_mutating_operations_return_fresh_cache(g):
    parent_csr = g.adjacency_csr()
    kill = np.zeros(g.n, dtype=bool)
    kill[:5] = True
    child = g.remove_vertices(kill)
    assert not child.csr_is_built  # new instance, empty cache
    child_csr = child.adjacency_csr()
    # The child's adjacency reflects the removal...
    assert child_csr[:5].count_nonzero() == 0
    assert child_csr[:, :5].count_nonzero() == 0
    # ...and the parent's cached matrix is untouched.
    assert g.adjacency_csr() is parent_csr
    assert parent_csr.count_nonzero() == 2 * g.m


def test_keep_edges_fresh_cache(g):
    g.adjacency_csr()
    mask = np.zeros(g.m, dtype=bool)
    mask[: g.m // 2] = True
    child = g.keep_edges(mask)
    assert not child.csr_is_built
    assert child.adjacency_csr().count_nonzero() == 2 * child.m


# --------------------------------------------------------------------- #
# from_csr_arrays fast path
# --------------------------------------------------------------------- #


def test_from_csr_arrays_round_trip(g):
    h = Graph.from_csr_arrays(
        g.n, g.edges_u, g.edges_v, g.indptr, g.indices, g.arc_edge_ids
    )
    assert h == g
    assert np.array_equal(h.indptr, g.indptr)
    assert np.array_equal(h.indices, g.indices)
    assert np.array_equal(h.arc_edge_ids, g.arc_edge_ids)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda a: a.__setitem__("indptr", a["indptr"][:-1]),
        lambda a: a.__setitem__("indptr", a["indptr"][::-1].copy()),
        lambda a: a.__setitem__("indices", a["indices"] + a["n"]),
        lambda a: a.__setitem__("arc_edge_ids", a["arc_edge_ids"] * 0 - 1),
        lambda a: a.__setitem__("edges_u", a["edges_v"].copy()),
    ],
)
def test_from_csr_arrays_validates(g, corrupt):
    arrays = {
        "n": g.n,
        "edges_u": g.edges_u.copy(),
        "edges_v": g.edges_v.copy(),
        "indptr": g.indptr.copy(),
        "indices": g.indices.copy(),
        "arc_edge_ids": g.arc_edge_ids.copy(),
    }
    corrupt(arrays)
    with pytest.raises(ValueError):
        Graph.from_csr_arrays(
            arrays["n"],
            arrays["edges_u"],
            arrays["edges_v"],
            arrays["indptr"],
            arrays["indices"],
            arrays["arc_edge_ids"],
        )


def test_from_csr_arrays_empty_graph():
    e = Graph.empty(5)
    h = Graph.from_csr_arrays(
        5, e.edges_u, e.edges_v, e.indptr, e.indices, e.arc_edge_ids
    )
    assert h == e
