"""Performance kernels -- genuine wall-clock microbenchmarks.

Unlike the T*/F* benches (which regenerate paper claims with single-shot
pedantic runs), these use pytest-benchmark's repeated timing on the hot
kernels, so performance regressions in the vectorised substrate are caught:

* k-wise hash evaluation over 100k ids;
* one derandomized Luby matching objective evaluation;
* one full sparsification stage seed-scan;
* CSR graph construction from an edge array.
"""

import numpy as np

from repro.core import Params, good_nodes_matching
from repro.core.sparsify_edges import sparsify_edges
from repro.graphs import Graph, gnp_random_graph
from repro.hashing import make_family, make_product_family
from repro.mpc import MPCContext


def test_kernel_hash_evaluation(benchmark):
    fam = make_family(universe=100_000, k=4)
    xs = np.arange(100_000, dtype=np.int64)
    out = benchmark(lambda: fam.evaluate(12345, xs))
    assert out.shape == (100_000,)


def test_kernel_product_hash(benchmark):
    fam = make_product_family(100_000, k=2)
    xs = np.arange(100_000, dtype=np.int64)
    out = benchmark(lambda: fam.evaluate(98765 % fam.size, xs))
    assert out.shape == (100_000,)


def test_kernel_graph_construction(benchmark):
    rng = np.random.default_rng(0)
    edges = rng.integers(0, 5000, size=(40_000, 2))

    g = benchmark(lambda: Graph.from_edges(5000, edges))
    assert g.n == 5000


def test_kernel_luby_objective(benchmark):
    g = gnp_random_graph(2000, 0.01, seed=7)
    fam = make_product_family(g.m, k=2)
    eids = np.arange(g.m, dtype=np.int64)
    stride = np.uint64(g.m + 1)
    maxkey = np.uint64(2**63 - 1)
    deg = g.degrees().astype(np.float64)

    def one_objective():
        z = fam.evaluate(321 % fam.size, eids)
        key = z * stride + eids.astype(np.uint64)
        node_min = np.full(g.n, maxkey, dtype=np.uint64)
        np.minimum.at(node_min, g.edges_u, key)
        np.minimum.at(node_min, g.edges_v, key)
        matched = (key == node_min[g.edges_u]) & (key == node_min[g.edges_v])
        return float(deg[g.edges_u[matched]].sum() + deg[g.edges_v[matched]].sum())

    val = benchmark(one_objective)
    assert val > 0


def test_kernel_sparsify_stage(benchmark):
    g = gnp_random_graph(300, 0.25, seed=8)
    params = Params()
    good = good_nodes_matching(g, params)

    def one_sparsification():
        ctx = MPCContext(
            n=g.n, m=g.m, eps=params.eps, space_factor=params.space_factor
        )
        return sparsify_edges(g, good, params, ctx, [])

    res = benchmark(one_sparsification)
    assert res.mask.any()
