"""Reference oracles for the graph-transform layer.

``bfs_depth``, ``line_graph``, ``square_graph``, ``hop_pattern``,
``ball_sizes``, ``linial_coloring`` and ``distance2_coloring`` are pinned
against small pure-Python and networkx references over the graph families
that stress their edge cases: empty graphs, isolated nodes, stars, complete
graphs, many small components and relabelled copies, also under tiny block
budgets.  The low-degree and colour-compressed drivers are pinned to count
``G^2``'s rows once per solve, to build its two-hop pattern only when Linial
takes a reduction step (then once), and the canonical ``G^2`` graph never.
On a line graph or a product graph that count comes from the base graph, so
no ``ball_sizes`` call runs on the derived graph.
"""

from __future__ import annotations

from collections import Counter, deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.congest.mis_congest as mis_congest
import repro.core.derived as derived
import repro.core.lowdeg as lowdeg
import repro.graphs.coloring as coloring
import repro.graphs.power as power
from repro.congest import bfs_depth, congest_maximal_matching, congest_mis
from repro.core import (
    Params,
    deterministic_coloring,
    lowdeg_maximal_matching,
    lowdeg_mis,
    phases_per_stage,
)
from repro.core.api import uses_lowdeg_path
from repro.graphs import (
    Graph,
    ball_sizes,
    complete_graph,
    cycle_graph,
    distance2_coloring,
    gnp_random_graph,
    hop_pattern,
    line_graph,
    linial_coloring,
    path_graph,
    square_graph,
    star_graph,
)
from repro.mpc.context import MPCContext
from repro.verify import verify_matching_pairs, verify_mis_nodes
from test_kernels_equivalence import linial_step_reference

#: The per-step kernel as imported, before any test wraps it.
LINIAL_STEP = coloring._linial_step


def _disjoint_union(parts: list[Graph]) -> Graph:
    offset, edges = 0, [np.empty((0, 2), dtype=np.int64)]
    for part in parts:
        edges.append(part.edge_array() + offset)
        offset += part.n
    return Graph.from_edges(offset, np.concatenate(edges))


@st.composite
def graph_families(draw) -> Graph:
    kind = draw(
        st.sampled_from(["empty", "isolated", "star", "complete", "components", "random"])
    )
    if kind == "empty":
        g = Graph.empty(draw(st.integers(0, 6)))
    elif kind == "isolated":
        core = draw(st.integers(2, 8))
        pair = st.tuples(st.integers(0, core - 1), st.integers(0, core - 1))
        g = Graph.from_edges(core + draw(st.integers(1, 6)), draw(st.lists(pair, max_size=20)))
    elif kind == "star":
        g = star_graph(draw(st.integers(1, 16)))
    elif kind == "complete":
        g = complete_graph(draw(st.integers(1, 9)))
    elif kind == "components":
        # Many small low-degree pieces: n far above Delta^2, so Linial
        # evaluates reduction steps before its terminal check.
        makers = (path_graph, cycle_graph, star_graph, complete_graph)
        spec = st.tuples(st.integers(0, 3), st.integers(1, 4))
        parts = draw(st.lists(spec, min_size=1, max_size=90))
        g = _disjoint_union([makers[k](size) for k, size in parts])
    else:
        n = draw(st.integers(1, 24))
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        g = Graph.from_edges(n, draw(st.lists(pair, max_size=60)))
    if g.n and draw(st.booleans()):
        perm = np.asarray(draw(st.permutations(range(g.n))), dtype=np.int64)
        g = g.relabel(perm, g.n)
    return g


def bfs_depth_reference(g: Graph) -> int:
    """Max over components of the BFS eccentricity of the lowest id."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in zip(g.edges_u.tolist(), g.edges_v.tolist()):
        adj[u].append(v)
        adj[v].append(u)
    dist = [-1] * g.n
    depth = 0
    for root in range(g.n):  # ascending: a component is first met at its lowest id
        if dist[root] >= 0:
            continue
        dist[root] = 0
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    depth = max(depth, dist[y])
                    queue.append(y)
    return depth


def linial_reference(g: Graph) -> tuple[np.ndarray, int, int]:
    """Linial's loop over the per-node reference step, evaluating every
    step, the terminal one included."""
    if g.m == 0:
        return np.zeros(g.n, dtype=np.int64), 1, 0
    colors, palette, iterations = np.arange(g.n, dtype=np.int64), max(g.n, 1), 0
    while True:
        new_colors, new_palette = linial_step_reference(g, colors, palette)
        iterations += 1
        if new_palette >= palette:
            break
        colors, palette = new_colors, new_palette
    uniq, inv = np.unique(colors, return_inverse=True)
    return inv.astype(np.int64), int(uniq.size), iterations


@given(graph_families())
def test_bfs_depth_matches_python_bfs(g):
    assert bfs_depth(g) == bfs_depth_reference(g)


@given(graph_families())
def test_square_graph_is_networkx_power(g):
    want = nx.power(g.to_networkx(), 2) if g.n else nx.Graph()
    assert square_graph(g) == Graph.from_edges(g.n, list(want.edges()))


@given(graph_families())
def test_line_graph_is_networkx_line_graph(g):
    eid = {(u, v): e for e, (u, v) in enumerate(g.edge_array().tolist())}
    want = nx.line_graph(g.to_networkx())
    pairs = [(eid[tuple(sorted(a))], eid[tuple(sorted(b))]) for a, b in want.edges()]
    assert line_graph(g) == Graph.from_edges(g.m, pairs)


@given(graph_families())
def test_hop_pattern_rows_are_networkx_power_neighbourhoods(g):
    pattern = hop_pattern(g)
    want = nx.power(g.to_networkx(), 2) if g.n else nx.Graph()
    for v in range(g.n):
        row = pattern.indices[pattern.indptr[v] : pattern.indptr[v + 1]].tolist()
        assert len(row) == len(set(row))
        assert set(row) == set(want.neighbors(v))  # no diagonal: v not in N(v)
    assert np.array_equal(np.diff(pattern.indptr), square_graph(g).degrees())


@given(graph_families())
def test_distance2_coloring_is_linial_on_square_graph(g):
    got, want = distance2_coloring(g), linial_coloring(square_graph(g))
    assert np.array_equal(got.colors, want.colors)
    assert (got.num_colors, got.iterations) == (want.num_colors, want.iterations)


@given(graph_families())
def test_linial_matches_every_step_reference(g):
    colors, num_colors, iterations = linial_reference(g)
    calls = Counter()

    def counting_step(*args, **kwargs):
        calls["step"] += 1
        return LINIAL_STEP(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring, "_linial_step", counting_step)
        res = linial_coloring(g)
    assert np.array_equal(res.colors, colors)
    assert (res.num_colors, res.iterations) == (num_colors, iterations)
    assert calls["step"] == max(iterations - 1, 0)


def test_component_family_reaches_a_reduction_step():
    """The properties above cover evaluated steps, not only the check."""
    g = _disjoint_union([path_graph(3)] * 100)
    assert linial_coloring(g).iterations >= 2
    got, want = distance2_coloring(g), linial_coloring(square_graph(g))
    assert got.iterations == want.iterations >= 2
    assert np.array_equal(got.colors, want.colors)


def _networkx_ball_sizes(g: Graph, r: int) -> np.ndarray:
    nxg = g.to_networkx()
    reach = nx.single_source_shortest_path_length
    sizes = [len(reach(nxg, v, cutoff=r)) - 1 for v in range(g.n)]
    return np.asarray(sizes, dtype=np.int64)


@given(graph_families(), st.sampled_from([2, 3, 4]), st.integers(1, 3))
def test_blocked_ball_sizes_are_pattern_row_counts(g, r, walks):
    pattern = hop_pattern(g, r)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(power, "_BLOCK_WALKS", walks)  # about one row per block
        sizes = ball_sizes(g, r)
        blocked = hop_pattern(g, r, sizes=sizes)
    assert np.array_equal(sizes, np.diff(pattern.indptr))
    if g.n:
        assert np.array_equal(sizes, _networkx_ball_sizes(g, r))
    pattern.sort_indices()
    blocked.sort_indices()
    assert np.array_equal(blocked.indptr, pattern.indptr)
    assert np.array_equal(blocked.indices, pattern.indices)


#: Tiny block budgets: a few walks per product block, one evaluation point
#: per table and a few arcs per compared row slice.
TINY_BUDGETS = (
    (power, "_BLOCK_WALKS", 50),
    (coloring, "_NODE_POINTS", 1),
    (coloring, "_ARC_POINTS", 64),
)


@pytest.mark.parametrize("tiny", [False, True], ids=["default", "tiny"])
@pytest.mark.parametrize(
    "make",
    [lambda: cycle_graph(5000), lambda: path_graph(20000)],
    ids=["cycle5000", "path20000"],
)
def test_distance2_coloring_steps_equal_linial_on_square_graph(make, tiny, monkeypatch):
    g = make()
    want = linial_coloring(square_graph(g))
    if tiny:
        for mod, name, value in TINY_BUDGETS:
            monkeypatch.setattr(mod, name, value)
    got = distance2_coloring(g)
    assert want.iterations >= 2
    assert (got.num_colors, got.iterations) == (want.num_colors, want.iterations)
    assert np.array_equal(got.colors, want.colors)


@pytest.mark.parametrize("tiny", [False, True], ids=["default", "tiny"])
def test_distance2_coloring_equals_linial_on_20_copies(any_graph, tiny, monkeypatch):
    # 20 disjoint copies lift n above q^2, so low-degree shapes take steps.
    g = _disjoint_union([any_graph] * 20)
    want = linial_coloring(square_graph(g))
    if tiny:
        for mod, name, value in TINY_BUDGETS:
            monkeypatch.setattr(mod, name, value)
    got = distance2_coloring(g)
    assert (got.num_colors, got.iterations) == (want.num_colors, want.iterations)
    assert np.array_equal(got.colors, want.colors)


@pytest.fixture
def transform_calls(monkeypatch) -> Counter:
    """Counts transform calls through every binding; ``ball_sizes`` and
    ``hop_pattern`` calls at r = 2 count apart from wider ones."""
    calls: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_by_r(name, fn):
        def wrapper(g, r=2, **kwargs):
            calls[f"{name}(r=2)" if r == 2 else f"{name}(r>2)"] += 1
            return fn(g, r, **kwargs)

        return wrapper

    for mod in (power, coloring, lowdeg, mis_congest, derived):
        for name in ("square_graph", "distance2_coloring"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        for name in ("ball_sizes", "hop_pattern"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted_by_r(name, getattr(mod, name)))
    return calls


@pytest.fixture
def ball_graphs(monkeypatch) -> Counter:
    """``(n, r)`` of the graph of every ``ball_sizes`` call, through every
    binding."""
    seen: Counter = Counter()

    def counted(fn):
        def wrapper(g, r, **kwargs):
            seen[(g.n, r)] += 1
            return fn(g, r, **kwargs)

        return wrapper

    for mod in (power, coloring, lowdeg, mis_congest, derived):
        if hasattr(mod, "ball_sizes"):
            monkeypatch.setattr(mod, "ball_sizes", counted(mod.ball_sizes))
    return seen


#: G^2's row counts feed the coloring; when Linial needs no reduction step
#: (q^2 >= n), neither the two-hop pattern nor a canonical G^2 is built.
NO_PATTERN = Counter({"ball_sizes(r=2)": 1, "distance2_coloring": 1})
#: A reduction step builds the two-hop pattern exactly once, from the counts.
ONE_PATTERN = NO_PATTERN + Counter({"hop_pattern(r=2)": 1})
#: On L(G) the r = 2 counts come from G (``line_graph_ball2_sizes``), so no
#: ``ball_sizes`` call runs at all.
LINE_GRAPH_NO_PATTERN = Counter({"distance2_coloring": 1})


def test_lowdeg_mis_builds_no_square_pattern(transform_calls):
    g = gnp_random_graph(300, 0.02, seed=1)
    assert phases_per_stage(g.n, g.max_degree(), Params()) == 1
    assert verify_mis_nodes(g, lowdeg_mis(g).independent_set)
    assert transform_calls == NO_PATTERN


def test_lowdeg_matching_builds_no_square_pattern(transform_calls):
    g = gnp_random_graph(300, 0.02, seed=2)
    assert verify_matching_pairs(g, lowdeg_maximal_matching(g).pairs)
    assert transform_calls == LINE_GRAPH_NO_PATTERN


def test_congest_matching_builds_no_square_pattern(transform_calls):
    g = gnp_random_graph(300, 0.02, seed=2)
    res = congest_maximal_matching(g, mode="color-compressed")
    pairs = np.stack([g.edges_u, g.edges_v], axis=1)[res.independent_set]
    assert verify_matching_pairs(g, pairs)
    assert transform_calls == LINE_GRAPH_NO_PATTERN


def test_coloring_counts_no_product_balls(transform_calls, ball_graphs):
    g = gnp_random_graph(300, 0.02, seed=4)
    k = g.max_degree() + 1
    assert uses_lowdeg_path(derived._product_graph(g, k), Params())
    res = deterministic_coloring(g)
    assert np.all(res.colors[g.edges_u] != res.colors[g.edges_v])
    # The product's r = 2 balls come from G's own count, once.
    assert ball_graphs == Counter({(g.n, 2): 1})
    assert transform_calls == NO_PATTERN


def test_lowdeg_multi_phase_stages_measure_wider_balls(transform_calls):
    params = Params(eps=1.0, delta=1.0)
    g = cycle_graph(200)
    assert phases_per_stage(g.n, g.max_degree(), params) > 1
    res = lowdeg_mis(g, params)
    assert verify_mis_nodes(g, res.independent_set)
    # A 200-cycle's G^2 (Delta = 4) takes a reduction step, so its pattern
    # is built once; the one r = 2 * ell ball measure fits machine space.
    assert res.num_colors < g.n
    assert transform_calls == ONE_PATTERN + Counter({"ball_sizes(r>2)": 1})


def test_lowdeg_wide_ball_gives_up_at_its_first_block(transform_calls, monkeypatch):
    params = Params(eps=1.0, delta=1.0)
    g = cycle_graph(200)
    ell = phases_per_stage(g.n, g.max_degree(), params)
    blocks = []
    real_blocks = power._reach_blocks

    def spy(graph, r):
        for lo, block in real_blocks(graph, r):
            blocks.append(r)
            yield lo, block

    monkeypatch.setattr(power, "_BLOCK_WALKS", 8)
    monkeypatch.setattr(power, "_reach_blocks", spy)
    # A cycle's r-hop balls have 2r members, so S = 4 (ell - 1) + 1 words
    # fit r = 2 (ell - 1) but not r = 2 ell; that count is abandoned after
    # its first block (one row each under this budget).
    space = 4 * (ell - 1) + 1
    ctx = MPCContext(n=g.n, m=g.m, eps=1.0, space_factor=space / g.n)
    res = lowdeg_mis(g, params, ctx=ctx)
    assert verify_mis_nodes(g, res.independent_set)
    wider = [r for r in blocks if r > 2]
    assert wider.count(2 * ell) == 1
    assert wider.count(2 * (ell - 1)) == g.n  # every row of the fitting r
    assert transform_calls == ONE_PATTERN + Counter({"ball_sizes(r>2)": 2})


def test_congest_color_compressed_builds_no_square_pattern(transform_calls):
    g = gnp_random_graph(300, 0.02, seed=3)
    res = congest_mis(g, mode="color-compressed")
    assert verify_mis_nodes(g, res.independent_set)
    assert transform_calls == NO_PATTERN
