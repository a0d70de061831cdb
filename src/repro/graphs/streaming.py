"""Streaming edge-block variants of the random-graph generators.

Each ``stream_*`` function yields ``(m_i, 2)`` int64 edge blocks instead of
returning a built :class:`~repro.graphs.graph.Graph`, so a consumer (the
shard-building writer in :mod:`repro.graphs.store`) can turn an arbitrarily
large generator call into on-disk CSR shards without the full edge list ever
existing in memory.

**Bit-identity contract.**  For the same arguments, concatenating a
``stream_*`` generator's blocks and feeding them to :meth:`Graph.from_edges`
produces *exactly* the graph the in-memory generator builds — same
fingerprint, same canonical arrays.  Every in-memory random generator in
:mod:`repro.graphs.generators` that has a streaming variant is built that
way, so the contract holds by construction; the test suite pins each
stream against an independent reference (and chunked ``Generator.random``
draws against one large draw).  The contract is what lets the
content-addressed store deduplicate a streamed graph against one built in
RAM.

Memory notes, per generator:

* ``stream_gnp_random_graph`` — truly streaming: the O(n^2) Bernoulli
  draws are consumed in flat upper-triangle chunks, so peak memory is
  O(block); the in-memory ``gnp_random_graph`` is built from this stream.
  Work is still O(n^2) draws (the definition); for million-node inputs use
  ``gnp_block_graph``, which is streaming-*native* and O(m).
* ``stream_random_regular_graph`` — the stub array (``n * d`` words) is
  materialised and shuffled (that *is* the definition), but the pair list
  is then emitted in blocks.
* ``stream_bounded_degree_graph`` / ``stream_power_law_graph`` — the
  sequential acceptance state (seen-edge set / endpoint pool) is inherent
  to the definition and stays O(m); only the accepted-edge list is
  streamed out.  These generators are for skew/degree-regime workloads,
  not for the million-node sweeps.

``gnp_block_graph`` is the large-``n`` workhorse: every ``2^22``-pair block
of the upper triangle draws its edge count binomially and its positions
uniformly from an independent child RNG (``SeedSequence(seed, block)``),
which is distributed *exactly* as G(n, p) but costs O(m + n^2 / block)
rather than O(n^2).  It is registered as a first-class generator in
:mod:`repro.graphs.generators`, so job specs can name it like any other.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .graph import Graph

__all__ = [
    "STREAMING_GENERATORS",
    "edge_count_upper_bound",
    "gnp_block_graph",
    "stream_blocks",
    "stream_bounded_degree_graph",
    "stream_gnp_block_graph",
    "stream_gnp_random_graph",
    "stream_power_law_graph",
    "stream_random_regular_graph",
]

#: Flat upper-triangle pairs consumed per chunk by the streaming G(n, p)
#: paths; 2^22 pairs keeps the per-block working set at a few tens of MB.
DEFAULT_BLOCK_PAIRS = 1 << 22

EdgeBlocks = Iterator[np.ndarray]


def _empty_block() -> np.ndarray:
    return np.empty((0, 2), dtype=np.int64)


def _triu_pair_of_flat(n: int, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map flat upper-triangle indices (row-major, ``np.triu_indices`` order)
    back to ``(i, j)`` pairs, vectorised.

    Row ``i`` owns ``n - 1 - i`` pairs; the first flat index of row ``i`` is
    ``T(i) = i * n - i * (i + 1) / 2``.  Inverting the quadratic gives the
    row, with an integer correction step to absorb float rounding.
    """
    f = flat.astype(np.float64)
    # Solve i^2 - (2n - 1) i + 2 f = 0 for the smallest root.
    b = 2.0 * n - 1.0
    i = np.floor((b - np.sqrt(b * b - 8.0 * f)) / 2.0).astype(np.int64)
    i = np.clip(i, 0, n - 2)
    start = i * n - (i * (i + 1)) // 2
    # Float rounding can land one row off in either direction.
    too_far = start > flat
    i[too_far] -= 1
    start[too_far] = i[too_far] * n - (i[too_far] * (i[too_far] + 1)) // 2
    next_start = start + (n - 1 - i)
    overshoot = flat >= next_start
    i[overshoot] += 1
    start[overshoot] = next_start[overshoot]
    j = i + 1 + (flat - start)
    return i, j


def stream_gnp_random_graph(
    n: int, p: float, seed: int, *, block_pairs: int = DEFAULT_BLOCK_PAIRS
) -> EdgeBlocks:
    """Edge blocks of :func:`~repro.graphs.generators.gnp_random_graph`.

    One uniform draw per upper-triangle pair, row-major, consumed in
    ``block_pairs`` chunks, so the O(n^2) boolean mask never materialises.
    The in-memory generator concatenates these blocks.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    if n <= 1 or p == 0.0:
        yield _empty_block()
        return
    total = n * (n - 1) // 2
    for lo in range(0, total, block_pairs):
        hi = min(lo + block_pairs, total)
        mask = rng.random(hi - lo) < p
        flat = np.flatnonzero(mask).astype(np.int64) + lo
        u, v = _triu_pair_of_flat(n, flat)
        yield np.stack([u, v], axis=1)


def stream_gnp_block_graph(
    n: int, p: float, seed: int, *, block_pairs: int = DEFAULT_BLOCK_PAIRS
) -> EdgeBlocks:
    """Streaming-native G(n, p): O(m) work via per-block binomial sampling.

    Block ``b`` covers flat pairs ``[b * block_pairs, ...)``; its edge count
    is drawn ``Binomial(block_size, p)`` and positions uniformly without
    replacement, from the independent child RNG ``SeedSequence(seed, b)``.
    Conditioning a product of Bernoullis on its success count yields a
    uniform subset, so the result is distributed exactly as G(n, p) — but
    a near-empty block costs O(1), not O(block).  The block size is part
    of the graph's identity (changing it changes the sampled graph), so it
    is a fixed constant rather than a tuning knob.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if n <= 1 or p == 0.0:
        yield _empty_block()
        return
    total = n * (n - 1) // 2
    for b, lo in enumerate(range(0, total, block_pairs)):
        size = min(block_pairs, total - lo)
        rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
        k = int(rng.binomial(size, p))
        if k == 0:
            continue
        flat = np.sort(rng.choice(size, size=k, replace=False)).astype(np.int64) + lo
        u, v = _triu_pair_of_flat(n, flat)
        yield np.stack([u, v], axis=1)


def gnp_block_graph(n: int, p: float, seed: int) -> Graph:
    """In-memory entry point for the block-sampled G(n, p) (see
    :func:`stream_gnp_block_graph`); the two are bit-identical by
    construction because this one consumes the same blocks."""
    return Graph.from_edges(
        max(n, 0),
        np.concatenate(list(stream_gnp_block_graph(n, p, seed)))
        if n > 1 and p > 0.0
        else np.empty((0, 2), dtype=np.int64),
    )


def stream_random_regular_graph(
    n: int, d: int, seed: int, *, block_edges: int = DEFAULT_BLOCK_PAIRS
) -> EdgeBlocks:
    """Edge blocks of :func:`~repro.graphs.generators.random_regular_graph`.

    The stub shuffle (``n * d`` words) *is* the definition; the resulting
    pair list is emitted in blocks so a downstream CSR build never
    concatenates it.
    """
    if d >= n:
        raise ValueError("need d < n")
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    for lo in range(0, pairs.shape[0], block_edges):
        yield pairs[lo : lo + block_edges]
    if pairs.shape[0] == 0:
        yield _empty_block()


def stream_bounded_degree_graph(
    n: int,
    max_deg: int,
    p_fill: float,
    seed: int,
    *,
    block_edges: int = 1 << 18,
) -> EdgeBlocks:
    """Edge blocks of :func:`~repro.graphs.generators.bounded_degree_graph`.

    Draws candidate edges in ``rng.integers`` batches and accepts them in
    order, flushing the accepted-edge list every ``block_edges`` edges.
    The seen-edge set is O(m) by definition.
    """
    if max_deg < 0:
        raise ValueError("max_deg must be >= 0")
    rng = np.random.default_rng(seed)
    target_edges = int(p_fill * n * max_deg / 2)
    deg = np.zeros(n, dtype=np.int64)
    chosen: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    accepted = 0
    attempts = 0
    while accepted < target_edges and attempts < 20:
        attempts += 1
        us = rng.integers(0, n, size=4 * max(target_edges, 1))
        vs = rng.integers(0, n, size=4 * max(target_edges, 1))
        for u, v in zip(us.tolist(), vs.tolist()):
            if u == v:
                continue
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in seen:
                continue
            if deg[a] >= max_deg or deg[b] >= max_deg:
                continue
            seen.add((a, b))
            deg[a] += 1
            deg[b] += 1
            chosen.append((a, b))
            accepted += 1
            if len(chosen) >= block_edges:
                yield np.asarray(chosen, dtype=np.int64).reshape(-1, 2)
                chosen = []
            if accepted >= target_edges:
                break
    yield np.asarray(chosen, dtype=np.int64).reshape(-1, 2)


def stream_power_law_graph(
    n: int, attach: int, seed: int, *, block_edges: int = 1 << 18
) -> EdgeBlocks:
    """Edge blocks of :func:`~repro.graphs.generators.power_law_graph`.

    The preferential-attachment walk flushes its edge list in blocks while
    the endpoint pool (inherent to the definition) stays resident.  For
    ``n <= attach + 1`` the single block is the complete graph's edges.
    """
    if attach < 1:
        raise ValueError("attach must be >= 1")
    rng = np.random.default_rng(seed)
    m0 = attach + 1
    if n <= m0:
        iu = np.triu_indices(max(n, 0), k=1)
        yield np.stack(
            [iu[0].astype(np.int64), iu[1].astype(np.int64)], axis=1
        )
        return
    # Start from a small clique, then attach each new node to `attach`
    # targets sampled proportionally to degree (via the repeated-endpoints
    # trick: sample uniformly from the arc-endpoint list).
    iu = np.triu_indices(m0, k=1)
    block_u = list(iu[0].astype(np.int64))
    block_v = list(iu[1].astype(np.int64))
    endpoint_pool: list[int] = block_u + block_v
    for new in range(m0, n):
        targets: set[int] = set()
        while len(targets) < attach:
            idx = int(rng.integers(0, len(endpoint_pool)))
            targets.add(endpoint_pool[idx])
        for t in targets:
            block_u.append(t)
            block_v.append(new)
            endpoint_pool.append(t)
            endpoint_pool.append(new)
        if len(block_u) >= block_edges:
            yield np.stack(
                [np.asarray(block_u), np.asarray(block_v)], axis=1
            )
            block_u, block_v = [], []
    yield (
        np.stack([np.asarray(block_u), np.asarray(block_v)], axis=1)
        if block_u
        else _empty_block()
    )


#: Generator name -> streaming block variant.  Keys match the in-memory
#: function names in :mod:`repro.graphs.generators`, which is how the
#: scheduler finds the streaming path for a
#: :class:`~repro.graphs.source.GraphSource` generator call.
STREAMING_GENERATORS: dict[str, Callable[..., EdgeBlocks]] = {
    "gnp_random_graph": stream_gnp_random_graph,
    "gnp_block_graph": stream_gnp_block_graph,
    "random_regular_graph": stream_random_regular_graph,
    "bounded_degree_graph": stream_bounded_degree_graph,
    "power_law_graph": stream_power_law_graph,
}


def stream_blocks(name: str, **kwargs) -> EdgeBlocks:
    """Blocks for generator ``name``; raises ``KeyError`` if no streaming
    variant exists (callers fall back to the in-memory generator)."""
    return STREAMING_GENERATORS[name](**kwargs)


def edge_count_upper_bound(name: str, args: dict) -> int:
    """Cheap a-priori bound on ``m`` for shard-count planning (0 = unknown)."""
    n = int(args.get("n", 0))
    if name in ("gnp_random_graph", "gnp_block_graph"):
        # 3x the mean is far beyond any realistic deviation at these sizes.
        return int(3 * args.get("p", 0.0) * n * (n - 1) / 2) + 1024
    if name == "random_regular_graph":
        return n * int(args.get("d", 0)) // 2 + 1
    if name == "bounded_degree_graph":
        return int(args.get("p_fill", 1.0) * n * int(args.get("max_deg", 0)) / 2) + 1
    if name == "power_law_graph":
        return n * int(args.get("attach", 1)) + int(args.get("attach", 1)) ** 2
    return 0
