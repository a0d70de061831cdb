"""Production kernels against small pure-Python reference solvers.

The CSR kernels are only allowed to change *how fast* answers arrive, never
the answers.  Each reference below is the textbook formulation the kernels
replace -- rebuild the residual graph every iteration, aggregate with
``np.*.at`` scatters, resolve Linial clashes one node at a time, run Luby
centrally instead of on the engine -- and the tests compare every field the
production solver reports (solution, ``edge_trace``, ``iterations``,
``rounds``) on the same seed.  Hypothesis drives the solver comparisons on
seeded random graphs; targeted cases cover the engine and the runtime cache.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.israeli_itai import israeli_itai_matching
from repro.baselines.luby import (
    BaselineResult,
    luby_matching_randomized,
    luby_mis_pairwise,
    luby_mis_randomized,
)
from repro.core.good_nodes import degree_class_of, good_nodes_mis
from repro.core.params import Params
from repro.graphs import (
    Graph,
    cycle_graph,
    gnp_random_graph,
    hop_pattern,
    path_graph,
)
from repro.graphs import coloring
from repro.graphs.coloring import (
    _linial_field,
    _linial_step,
    linial_coloring,
)
from repro.graphs.kernels import segment_min, segment_sum
from repro.hashing.kwise import make_family
from repro.mpc.distributed_luby import distributed_luby_mis
from repro.verify import verify_matching_pairs, verify_mis_nodes


# --------------------------------------------------------------------- #
# Reference solvers
# --------------------------------------------------------------------- #


def luby_mis_reference(g: Graph, seed: int, *, pairwise: bool) -> BaselineResult:
    """Luby MIS rebuilding the residual graph every iteration.

    z-values are fresh uniforms, or keys ``h(v) * (n + 1) + v`` from one
    random seed of a pairwise family when ``pairwise``.
    """
    rng = np.random.default_rng(seed)
    family = make_family(universe=max(g.n, 2), k=2)
    ids = np.arange(g.n, dtype=np.int64)
    stride = np.uint64(g.n + 1)
    fill = np.uint64(2**63 - 1) if pairwise else np.inf
    in_mis = np.zeros(g.n, dtype=bool)
    removed = np.zeros(g.n, dtype=bool)
    cur, trace = g, []
    while cur.m > 0:
        trace.append(cur.m)
        iso = cur.isolated_mask() & ~removed
        in_mis |= iso
        removed |= iso
        if pairwise:
            s = int(rng.integers(0, family.size))
            z = family.evaluate(s, ids) * stride + ids.astype(np.uint64)
        else:
            z = rng.random(g.n)
        nbr_min = np.full(g.n, fill, dtype=z.dtype)
        np.minimum.at(nbr_min, cur.edges_u, z[cur.edges_v])
        np.minimum.at(nbr_min, cur.edges_v, z[cur.edges_u])
        i_mask = (cur.degrees() > 0) & (z < nbr_min)
        kill = i_mask | (cur.degrees_toward(i_mask) > 0)
        in_mis |= i_mask
        removed |= kill
        cur = cur.remove_vertices(kill)
    in_mis |= ~removed
    it = len(trace)
    name = "luby_mis_pairwise" if pairwise else "luby_mis_randomized"
    return BaselineResult(np.nonzero(in_mis)[0], it, it, tuple(trace), name)


def _pairs(pairs: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(pairs) if pairs else np.empty((0, 2), dtype=np.int64)


def luby_matching_reference(g: Graph, seed: int) -> BaselineResult:
    """Luby matching rebuilding the residual graph every iteration."""
    rng = np.random.default_rng(seed)
    pairs, cur, trace = [], g, []
    while cur.m > 0:
        trace.append(cur.m)
        z = rng.random(cur.m)
        node_min = np.full(g.n, np.inf)
        np.minimum.at(node_min, cur.edges_u, z)
        np.minimum.at(node_min, cur.edges_v, z)
        won = (z == node_min[cur.edges_u]) & (z == node_min[cur.edges_v])
        used = np.zeros(g.n, dtype=bool)
        keep = []
        for e in np.nonzero(won)[0].tolist():  # float ties: lowest edge id
            a, b = int(cur.edges_u[e]), int(cur.edges_v[e])
            if not used[a] and not used[b]:
                used[a] = used[b] = True
                keep.append(e)
        pairs.append(np.stack([cur.edges_u[keep], cur.edges_v[keep]], axis=1))
        cur = cur.remove_vertices(used)
    it = len(trace)
    return BaselineResult(_pairs(pairs), it, it, tuple(trace), "luby_matching")


def israeli_itai_reference(g: Graph, seed: int) -> BaselineResult:
    """Israeli-Itai rebuilding the residual graph every iteration."""
    rng = np.random.default_rng(seed)
    pairs, cur, trace = [], g, []
    while cur.m > 0:
        trace.append(cur.m)
        deg = cur.degrees()
        live = np.nonzero(deg > 0)[0]
        proposal = np.full(g.n, -1, dtype=np.int64)
        offsets = (rng.random(live.size) * deg[live]).astype(np.int64)
        proposal[live] = cur.arc_edge_ids[cur.indptr[live] + offsets]
        eu, ev, eids = cur.edges_u, cur.edges_v, np.arange(cur.m)
        cand = np.nonzero((proposal[eu] == eids) | (proposal[ev] == eids))[0]
        prio = rng.permutation(cand.size)
        best = np.full(g.n, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(best, eu[cand], prio)
        np.minimum.at(best, ev[cand], prio)
        won = cand[(best[eu[cand]] == prio) & (best[ev[cand]] == prio)]
        pairs.append(np.stack([eu[won], ev[won]], axis=1))
        kill = np.zeros(g.n, dtype=bool)
        kill[eu[won]] = kill[ev[won]] = True
        cur = cur.remove_vertices(kill)
    it = len(trace)
    return BaselineResult(_pairs(pairs), it, 2 * it, tuple(trace), "israeli_itai")


def good_nodes_mis_reference(g: Graph, params: Params):
    """``(i_star, a_mask, b_mask, q0_mask)`` from ``np.add.at`` class sums."""
    deg = g.degrees()
    class_of = degree_class_of(deg, g.n, params.delta_value)
    inv_deg = np.where(deg > 0, 1.0 / np.maximum(deg, 1), 0.0)
    acc = np.zeros((g.n, params.num_classes + 1))
    np.add.at(acc, (g.edges_u, class_of[g.edges_v]), inv_deg[g.edges_v])
    np.add.at(acc, (g.edges_v, class_of[g.edges_u]), inv_deg[g.edges_u])
    live = deg > 0
    a_mask = (acc.sum(axis=1) >= 1.0 / 3.0 - 1e-12) & live
    b_masks = (acc[:, 1:] >= params.delta_value / 3.0 - 1e-12) & live[:, None]
    i_star = int(np.argmax(deg @ b_masks)) + 1
    return i_star, a_mask, b_masks[:, i_star - 1], (class_of == i_star) & live


def poly_evals_table(colors: np.ndarray, q: int, d: int) -> np.ndarray:
    """The dense (n, q) table ``evals[v, x] = p_v(x) mod q``: the
    coefficients of ``p_v`` are the base-q digits of v's color (lowest
    first), evaluated against a Vandermonde matrix of every point."""
    powers = range(d + 1)
    coeffs = np.stack([colors.astype(np.int64) // q**j % q for j in powers], axis=1)
    vander = np.stack([np.arange(q, dtype=np.int64) ** j % q for j in powers], axis=1)
    return coeffs @ vander.T % q


def linial_step_reference(g, colors: np.ndarray, palette: int):
    """One Linial reduction step, one node at a time.

    Node ``v`` takes the first evaluation point ``x`` where ``p_v(x)``
    differs from every neighbour's ``p_u(x)``; ``g`` is a graph or a
    ``hop_pattern`` CSR (anything with ``indptr`` / ``indices``).
    """
    n = g.indptr.size - 1
    q, d = _linial_field(int(np.diff(g.indptr).max(initial=0)), palette)
    evals = poly_evals_table(colors, q, d)
    new_colors = np.empty(n, dtype=np.int64)
    for v in range(n):
        nbrs = g.indices[g.indptr[v] : g.indptr[v + 1]]
        clash = np.any(evals[nbrs] == evals[v], axis=0)
        assert not clash.all()  # q > d * Delta leaves a free point
        x = int(np.argmin(clash))
        new_colors[v] = x * q + evals[v, x]
    return new_colors, q * q


def distributed_luby_reference(g: Graph) -> tuple[np.ndarray, int]:
    """``(mis, phases)`` of the engine's Luby run, computed centrally.

    Same phase seeds (``1 + t * 7919 mod |H|``) and the same total-order
    keys ``z(v) * (n + 1) + v`` as :func:`distributed_luby_mis`.
    """
    n = max(g.n, 1)
    family = make_family(universe=n, k=2)
    ids = np.arange(g.n, dtype=np.int64)
    in_mis = np.zeros(g.n, dtype=bool)
    removed = np.zeros(g.n, dtype=bool)
    alive = np.ones(g.m, dtype=bool)
    phases = 0
    while alive.any():
        phases += 1
        seed = (1 + phases * 7919) % family.size
        z = family.evaluate(seed, ids).astype(np.uint64)
        key = z * np.uint64(n + 1) + ids.astype(np.uint64)
        eu, ev = g.edges_u[alive], g.edges_v[alive]
        nbr_min = np.full(g.n, np.iinfo(np.uint64).max, dtype=np.uint64)
        np.minimum.at(nbr_min, eu, key[ev])
        np.minimum.at(nbr_min, ev, key[eu])
        chosen = (nbr_min < np.iinfo(np.uint64).max) & (key < nbr_min)
        kill = chosen.copy()
        kill[eu[chosen[ev]]] = kill[ev[chosen[eu]]] = True
        in_mis |= chosen
        removed |= kill
        alive &= ~(kill[g.edges_u] | kill[g.edges_v])
    return np.nonzero(in_mis | ~removed)[0], phases


# --------------------------------------------------------------------- #
# Segment kernels vs a python reference
# --------------------------------------------------------------------- #


@given(
    st.lists(st.integers(0, 6), min_size=0, max_size=12),
    st.integers(0, 2**31),
)
@settings(max_examples=50)
def test_segment_kernels_match_reference(seg_sizes, seed):
    rng = np.random.default_rng(seed)
    sizes = np.asarray(seg_sizes, dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    values = rng.integers(-50, 50, size=int(indptr[-1])).astype(np.int64)
    mins = segment_min(values, indptr, np.int64(999))
    sums = segment_sum(values, indptr)
    for i, size in enumerate(seg_sizes):
        seg = values[indptr[i] : indptr[i + 1]]
        assert sums[i] == seg.sum()
        assert mins[i] == (seg.min() if size else 999)


# --------------------------------------------------------------------- #
# Solvers vs their references on seeded random graphs (hypothesis)
# --------------------------------------------------------------------- #


@st.composite
def random_graphs(draw):
    n = draw(st.integers(2, 32))
    density = draw(st.integers(0, 3))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    p = [0.02, 0.1, 0.3, 0.8][density]
    mask = rng.random((n, n)) < p
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
    return Graph.from_edges(n, edges)


def _same_result(a, b) -> bool:
    return (
        np.array_equal(a.solution, b.solution)
        and a.edge_trace == b.edge_trace
        and a.iterations == b.iterations
        and a.rounds == b.rounds
    )


@given(random_graphs(), st.integers(0, 2**31))
def test_luby_mis_backends_identical(g, seed):
    res = luby_mis_randomized(g, seed)
    assert _same_result(res, luby_mis_reference(g, seed, pairwise=False))
    assert verify_mis_nodes(g, res.solution)


@given(random_graphs(), st.integers(0, 2**31))
def test_luby_pairwise_backends_identical(g, seed):
    res = luby_mis_pairwise(g, seed)
    assert _same_result(res, luby_mis_reference(g, seed, pairwise=True))
    assert verify_mis_nodes(g, res.solution)


@given(random_graphs(), st.integers(0, 2**31))
def test_luby_matching_backends_identical(g, seed):
    res = luby_matching_randomized(g, seed)
    assert _same_result(res, luby_matching_reference(g, seed))
    assert verify_matching_pairs(g, res.solution)


@given(random_graphs(), st.integers(0, 2**31))
def test_israeli_itai_backends_identical(g, seed):
    res = israeli_itai_matching(g, seed)
    assert _same_result(res, israeli_itai_reference(g, seed))
    assert verify_matching_pairs(g, res.solution)


@given(random_graphs())
def test_good_nodes_mis_backends_identical(g):
    params = Params()
    got = good_nodes_mis(g, params)
    i_star, a_mask, b_mask, q0_mask = good_nodes_mis_reference(g, params)
    assert got.i_star == i_star
    assert np.array_equal(got.b_mask, b_mask)
    assert np.array_equal(got.a_mask, a_mask)
    assert np.array_equal(got.q0_mask, q0_mask)


# --------------------------------------------------------------------- #
# Linial reduction step vs the per-node reference
# --------------------------------------------------------------------- #


def test_linial_coloring_backends_identical(any_graph, monkeypatch):
    # 20 disjoint copies lift n above q^2, so low-degree shapes take steps.
    k, n = 20, any_graph.n
    edges = [any_graph.edge_array() + i * n for i in range(k)]
    g = Graph.from_edges(k * n, np.concatenate(edges))
    want = linial_coloring(g)
    monkeypatch.setattr(coloring, "_linial_step", linial_step_reference)
    got = linial_coloring(g)
    assert (got.num_colors, got.iterations) == (want.num_colors, want.iterations)
    assert np.array_equal(got.colors, want.colors)


@pytest.mark.parametrize("gseed", [1, 9])
def test_linial_step_matches_reference_on_degree_one_fields(gseed):
    # linial_coloring never steps with d = 1 (a step needs q^2 < palette),
    # but the general kernel still handles such a field when called directly.
    g = gnp_random_graph(70, 0.08, seed=gseed)
    colors = np.arange(g.n, dtype=np.int64)
    assert _linial_field(g.max_degree(), g.n)[1] == 1
    got = _linial_step(g, colors, g.n)
    want = linial_step_reference(g, colors, g.n)
    assert got[1] == want[1]
    assert np.array_equal(got[0], want[0])


@pytest.mark.parametrize(
    "make",
    [lambda: cycle_graph(5000), lambda: path_graph(20000)],
    ids=["cycle5000", "path20000"],
)
@pytest.mark.parametrize("square", [False, True], ids=["G", "G2"])
def test_linial_reduction_steps_match_reference(make, square, monkeypatch):
    g = make()
    arcs = hop_pattern(g) if square else g
    want = linial_coloring(arcs)
    fields = []

    def reference_step(a, colors, palette):
        fields.append(_linial_field(int(np.diff(a.indptr).max()), palette))
        return linial_step_reference(a, colors, palette)

    monkeypatch.setattr(coloring, "_linial_step", reference_step)
    got = linial_coloring(arcs)
    assert want.iterations >= 2 and all(d >= 2 for _, d in fields)
    assert (got.num_colors, got.iterations) == (want.num_colors, want.iterations)
    assert np.array_equal(got.colors, want.colors)


# --------------------------------------------------------------------- #
# MPC engine Luby vs the centralised reference
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "make,machines,space",
    [
        (lambda: gnp_random_graph(30, 0.2, seed=1), 4, 512),
        (lambda: gnp_random_graph(48, 0.12, seed=2), 5, 512),
    ],
)
def test_distributed_luby_backends_identical(make, machines, space):
    g = make()
    mis, phases = distributed_luby_reference(g)
    got, rounds, got_phases = distributed_luby_mis(g, machines, space)
    assert np.array_equal(got, mis)
    assert got_phases == phases
    assert rounds == 10 * phases  # 1 broadcast + 9 step rounds per phase
    assert verify_mis_nodes(g, mis)


@settings(max_examples=15)
@given(random_graphs())
def test_distributed_luby_matches_reference(g):
    mis, rounds, phases = distributed_luby_mis(g, 3, 4096)
    want, want_phases = distributed_luby_reference(g)
    assert np.array_equal(mis, want)
    assert (phases, rounds) == (want_phases, 10 * want_phases)


def test_engine_word_size_counts_arrays():
    from repro.mpc.engine import word_size

    assert word_size(np.arange(7)) == 7
    assert word_size(np.empty(0, dtype=np.int64)) == 0
    assert word_size((1, 2, 3)) == 3
    assert word_size(5) == 1


# --------------------------------------------------------------------- #
# ResultCache with CSR payloads
# --------------------------------------------------------------------- #


def test_scheduler_cache_hits_with_csr_payloads(tmp_path):
    from repro.runtime.cache import ResultCache
    from repro.runtime.scheduler import Scheduler
    from repro.api import SolveRequest
    from repro.graphs import GraphSource

    spec = SolveRequest(
        problem="mis",
        source=GraphSource.generator("gnp_random_graph", n=40, p=0.15, seed=3),
    )
    cache = ResultCache(tmp_path / "cache")
    sched = Scheduler(workers=1, cache=cache)
    first = sched.run([spec])
    assert first.all_ok and first.stats.cache_hits == 0
    second = sched.run([spec])
    assert second.all_ok and second.stats.cache_hits == 1
    assert second.results[0].solution_size == first.results[0].solution_size


def test_cache_lru_touch_protects_recently_read(tmp_path):
    from repro.runtime.cache import ResultCache

    cache = ResultCache(tmp_path / "cache", max_entries=2)
    arrays = {"solution": np.arange(3, dtype=np.int64)}
    cache.put("k1", job={"status": "ok"}, arrays=arrays)
    cache.put("k2", job={"status": "ok"}, arrays=arrays)
    assert cache.get("k1") is not None  # touch: k1 becomes most recent
    cache.put("k3", job={"status": "ok"}, arrays=arrays)  # evicts k2, not k1
    assert cache.keys() == ["k1", "k3"]
    assert cache.get("k2") is None
    assert len(cache) == 2 and "k2" not in cache
