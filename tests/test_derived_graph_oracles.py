"""Reference oracles for Section 5's derived graphs, built from the base graph.

``Graph._from_canonical`` builds the CSR by a counting transpose,
``_product_graph`` writes the five arrays of ``G x K_k`` in closed form,
``line_graph`` writes ``L(G)``'s canonical edge list in closed form,
``Graph.remove_vertices`` / ``keep_edges`` filter the live CSR, and
``degrees_within`` counts with ``np.bincount``.  Each is pinned here against
the body it replaced: the stable argsort of both arc orientations, a
canonicalising sort plus that argsort over the product's edge list and over
every pair of arcs meeting at a node, a re-sort of the surviving edges
through the argsort build, and ``np.add.at`` (``degrees_toward``'s
reference too).  All five arrays must be equal, dtypes included.  The
r = 2 ball sizes of ``G x K_k`` and ``L(G)``, derived from ``G``, must
equal ``ball_sizes`` on the materialised graph.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.graphs.power as power
from repro.core.derived import _product_ball2_sizes, _product_graph
from repro.graphs import CSR_ARRAY_FILES, Graph, ball_sizes, line_graph
from repro.graphs.graph import _canonicalise_edges
from repro.graphs.linegraph import line_graph_ball2_sizes
from repro.graphs.streaming import gnp_block_graph
from test_transform_oracles import graph_families

ARRAYS = ("edges_u", "edges_v", "indptr", "indices", "arc_edge_ids")


def product_graph_reference(g: Graph, k: int) -> Graph:
    """``G x K_k`` through the argsort build: the clique edges of every
    node, then one cross edge per G edge and color."""
    n = g.n
    cs = np.triu_indices(k, k=1)
    base = np.arange(n, dtype=np.int64)[:, None] * k
    clique_u = (base + cs[0][None, :]).ravel()
    clique_v = (base + cs[1][None, :]).ravel()
    col = np.arange(k, dtype=np.int64)
    cross_u = (g.edges_u[:, None] * k + col[None, :]).ravel()
    cross_v = (g.edges_v[:, None] * k + col[None, :]).ravel()
    edges = np.stack(
        [np.concatenate([clique_u, cross_u]), np.concatenate([clique_v, cross_v])],
        axis=1,
    )
    return from_edges_reference(n * k, edges)


def line_graph_reference(g: Graph) -> Graph:
    """``L(G)`` through the argsort build: every pair of arcs of one CSR
    row, the edge-id pairs meeting at that row's node."""
    arcs = np.arange(g.indices.size, dtype=np.int64)
    later = np.repeat(g.indptr[1:], np.diff(g.indptr)) - arcs - 1
    first = np.repeat(arcs, later)
    step = np.arange(first.size) - np.repeat(np.cumsum(later) - later, later) + 1
    eids = g.arc_edge_ids
    pairs = np.stack([eids[first], eids[first + step]], axis=1)
    return from_edges_reference(g.m, pairs)


def from_canonical_reference(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """CSR of canonical edges by a stable argsort of both arc orientations."""
    m = u.size
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    eid = np.concatenate([np.arange(m, dtype=np.int64)] * 2)
    order = np.argsort(src, kind="stable")
    dst, eid = dst[order], eid[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return Graph(n=n, edges_u=u, edges_v=v, indptr=indptr, indices=dst, arc_edge_ids=eid)


def from_edges_reference(n: int, edges: np.ndarray) -> Graph:
    """``Graph.from_edges`` through the argsort build."""
    u, v = _canonicalise_edges(n, edges[:, 0], edges[:, 1])
    return from_canonical_reference(n, u, v)


def remove_vertices_reference(g: Graph, node_mask: np.ndarray) -> Graph:
    keep = ~(node_mask[g.edges_u] | node_mask[g.edges_v])
    return from_canonical_reference(g.n, g.edges_u[keep], g.edges_v[keep])


def keep_edges_reference(g: Graph, edge_mask: np.ndarray) -> Graph:
    return from_canonical_reference(g.n, g.edges_u[edge_mask], g.edges_v[edge_mask])


def degrees_within_reference(g: Graph, edge_mask: np.ndarray) -> np.ndarray:
    deg = np.zeros(g.n, dtype=np.int64)
    np.add.at(deg, g.edges_u[edge_mask], 1)
    np.add.at(deg, g.edges_v[edge_mask], 1)
    return deg


def degrees_toward_reference(g: Graph, node_mask: np.ndarray) -> np.ndarray:
    counts = np.zeros(g.n, dtype=np.int64)
    np.add.at(counts, g.edges_u, node_mask[g.edges_v].astype(np.int64))
    np.add.at(counts, g.edges_v, node_mask[g.edges_u].astype(np.int64))
    return counts


def assert_same_graph(got: Graph, want: Graph) -> None:
    assert got.n == want.n
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is np.ndarray and a.dtype == np.int64, name
        assert b.dtype == np.int64, name
        assert np.array_equal(a, b), name


@pytest.fixture(scope="module")
def mmap_root():
    with tempfile.TemporaryDirectory() as root:
        yield Path(root)


def opened_from_mmap(g: Graph, root: Path) -> Graph:
    """``g`` written as :data:`CSR_ARRAY_FILES` and reopened memory-mapped."""
    directory = Path(tempfile.mkdtemp(dir=root))
    for name, attr in zip(CSR_ARRAY_FILES, ARRAYS):
        np.save(directory / name, getattr(g, attr))
    return Graph.from_mmap(g.n, directory, validate=True)


@st.composite
def base_graphs(draw, root: Path) -> Graph:
    g = draw(graph_families())
    return opened_from_mmap(g, root) if draw(st.booleans()) else g


def draw_mask(data, size: int) -> np.ndarray:
    kind = data.draw(st.sampled_from(["nothing", "everything", "random"]))
    if kind == "nothing":
        return np.zeros(size, dtype=bool)
    if kind == "everything":
        return np.ones(size, dtype=bool)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    return rng.random(size) < data.draw(st.sampled_from([0.1, 0.5, 0.9]))


@given(data=st.data())
def test_from_canonical_equals_the_argsort_build(mmap_root, data):
    g = data.draw(base_graphs(mmap_root))
    u, v = g.edges_u, g.edges_v
    want = from_canonical_reference(g.n, u, v)
    assert_same_graph(Graph._from_canonical(g.n, u, v), want)


@pytest.mark.parametrize("u, v", [([0], [3]), ([0], [-1]), ([0, 1], [2])])
def test_from_canonical_refuses_what_the_transpose_cannot_index(u, v):
    """Out-of-range or unpaired endpoints raise before the native transpose
    runs, never write past its buffers."""
    with pytest.raises(ValueError):
        Graph._from_canonical(3, np.array(u), np.array(v))


def test_line_graph_csr_at_the_transforms_input():
    """L(G) of the ``transforms`` n = 8000 input (workload seed 1's first
    draw with max degree 21): the counting transpose equals the argsort
    build, and the arrays pass a validating round trip, which checks the
    canonical arc order."""
    lg = line_graph(gnp_block_graph(8000, 8 / 8000, 1_000_004))
    assert lg.m == 254_073
    assert_same_graph(lg, from_canonical_reference(lg.n, lg.edges_u, lg.edges_v))
    arrays = [getattr(lg, name) for name in ARRAYS]
    assert_same_graph(Graph.from_csr_arrays(lg.n, *arrays, validate=True), lg)


@given(data=st.data())
def test_product_graph_equals_from_edges(mmap_root, data):
    g = data.draw(base_graphs(mmap_root))
    delta = g.max_degree()
    k = data.draw(st.sampled_from([1, 2, delta + 1, delta + 3]))
    assert_same_graph(_product_graph(g, k), product_graph_reference(g, k))


@given(data=st.data())
def test_product_ball2_sizes_count_the_product(mmap_root, data):
    g = data.draw(base_graphs(mmap_root))
    k = data.draw(st.sampled_from([1, 2, g.max_degree() + 1, g.max_degree() + 3]))
    want = ball_sizes(product_graph_reference(g, k), 2)
    got = _product_ball2_sizes(g, k)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@given(data=st.data())
def test_line_graph_equals_from_edges(mmap_root, data):
    g = data.draw(base_graphs(mmap_root))
    assert_same_graph(line_graph(g), line_graph_reference(g))


@given(data=st.data())
def test_line_graph_ball2_sizes_count_the_line_graph(mmap_root, data):
    g = data.draw(base_graphs(mmap_root))
    want = ball_sizes(line_graph(g), 2)
    walks = data.draw(st.sampled_from([1, 3, power._BLOCK_WALKS]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(power, "_BLOCK_WALKS", walks)  # down to a row per block
        got = line_graph_ball2_sizes(g)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@given(data=st.data())
def test_remove_vertices_filters_the_csr(mmap_root, data):
    g = data.draw(base_graphs(mmap_root))
    mask = draw_mask(data, g.n)
    assert_same_graph(g.remove_vertices(mask), remove_vertices_reference(g, mask))


@given(data=st.data())
def test_keep_edges_filters_the_csr(mmap_root, data):
    g = data.draw(base_graphs(mmap_root))
    mask = draw_mask(data, g.m)
    assert_same_graph(g.keep_edges(mask), keep_edges_reference(g, mask))


@given(data=st.data())
def test_degree_counts_equal_add_at(mmap_root, data):
    g = data.draw(base_graphs(mmap_root))
    edge_mask, node_mask = draw_mask(data, g.m), draw_mask(data, g.n)
    for got, want in (
        (g.degrees_within(edge_mask), degrees_within_reference(g, edge_mask)),
        (g.degrees_toward(node_mask), degrees_toward_reference(g, node_mask)),
    ):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def test_derived_graphs_at_benchmark_size():
    """The ``transforms`` coloring input's size: the product, L(G), their
    balls and a chain of removals all match their references."""
    g = gnp_block_graph(2000, 8 / 2000, 1)
    k = g.max_degree() + 1
    prod = _product_graph(g, k)
    assert_same_graph(prod, product_graph_reference(g, k))
    assert np.array_equal(_product_ball2_sizes(g, k), ball_sizes(prod, 2))
    lg = line_graph(g)
    assert_same_graph(lg, line_graph_reference(g))
    assert np.array_equal(line_graph_ball2_sizes(g), ball_sizes(lg, 2))
    rng = np.random.default_rng(0)
    cur = want = prod
    while cur.m:
        mask = rng.random(cur.n) < 0.05
        cur, want = cur.remove_vertices(mask), remove_vertices_reference(want, mask)
        assert_same_graph(cur, want)
