"""Randomized Luby baselines (Algorithm 1 of the paper, [44]).

Three variants, all returning a :class:`BaselineResult` with per-iteration
edge counts so benchmarks can compare progress rates against the
deterministic algorithms:

* ``luby_mis_randomized`` -- fully independent uniform z-values (the
  textbook algorithm; the randomized yardstick for T1/T2).
* ``luby_mis_pairwise`` -- z-values from a *random seed* of a pairwise
  family: the randomness-efficient variant whose derandomization is the
  paper's subject.  Comparing it against the fully independent variant
  shows pairwise independence loses (essentially) nothing -- Luby's key
  observation.
* ``luby_matching_randomized`` -- Luby on edges (local-minimum edges join
  the matching), the matching analogue.

Round accounting: one charged round per iteration (each Luby iteration is
O(1) MPC rounds for a randomized algorithm; no seed search is needed).

Implementation: every solver runs against the *original* graph's CSR
arrays with an alive-edge mask (compacted once most edges are dead), using
the reduceat / sparse mat-vec kernels of :mod:`repro.graphs.kernels`
instead of rebuilding the residual graph each iteration.  The kernels use
only order-free exact reductions, so each solver returns exactly what the
rebuild-every-iteration formulation returns for the same seed; the
reference solvers in ``tests/test_kernels_equivalence.py`` pin that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph
from ..graphs.kernels import alive_edge_degrees, neighbor_min, segment_min, segment_sum
from ..hashing.kwise import make_family

__all__ = [
    "BaselineResult",
    "luby_matching_randomized",
    "luby_mis_pairwise",
    "luby_mis_randomized",
]


@dataclass(frozen=True)
class BaselineResult:
    """Outcome of a baseline run."""

    solution: np.ndarray  # node ids (MIS) or (k, 2) pairs (matching)
    iterations: int
    rounds: int
    edge_trace: tuple[int, ...]  # |E| before each iteration
    algorithm: str


#: Compact the working graph once fewer than this fraction of its edges
#: survive.  Amortised O(m) total rebuild work over a whole solve while
#: keeping every per-iteration kernel O(current edges).
_COMPACT_RATIO = 4


def _maybe_compact(cur, alive_e, m_alive):
    """Re-materialise the surviving subgraph when it has shrunk enough.

    Node ids are stable (``keep_edges`` preserves the vertex set) and the
    canonical edge order of the compacted graph equals the original order
    restricted to survivors, so RNG-indexed logic is unchanged.
    """
    if m_alive * _COMPACT_RATIO < cur.m:
        cur = cur.keep_edges(alive_e)
        alive_e = np.ones(cur.m, dtype=bool)
    return cur, alive_e


def _maybe_compact_flagged(cur, alive_e, m_alive):
    """:func:`_maybe_compact` variant that also reports whether it fired."""
    compacted = m_alive * _COMPACT_RATIO < cur.m
    return compacted, _maybe_compact(cur, alive_e, m_alive)


# ---------------------------------------------------------------------- #
# MIS, fresh uniform randomness
# ---------------------------------------------------------------------- #


def luby_mis_randomized(
    g: Graph,
    seed: int,
    *,
    max_iterations: int = 10_000,
) -> BaselineResult:
    """Textbook Luby MIS with fresh uniform randomness each iteration."""
    rng = np.random.default_rng(seed)
    in_mis = np.zeros(g.n, dtype=bool)
    removed = np.zeros(g.n, dtype=bool)
    cur = g
    alive_e = np.ones(cur.m, dtype=bool)
    m_alive = cur.m
    trace: list[int] = []
    it = 0
    while m_alive > 0:
        it += 1
        if it > max_iterations:
            raise RuntimeError("randomized Luby failed to converge")
        cur, alive_e = _maybe_compact(cur, alive_e, m_alive)
        trace.append(m_alive)
        deg_alive = alive_edge_degrees(cur, alive_e)
        iso = (deg_alive == 0) & ~removed
        in_mis |= iso
        removed |= iso
        z = rng.random(g.n)
        nbr_min = neighbor_min(cur, z, exclude=removed, fill=np.inf)
        i_mask = (deg_alive > 0) & (z < nbr_min)
        dominated = _dominated_by(cur, alive_e, i_mask)
        kill = i_mask | dominated
        in_mis |= i_mask
        removed |= kill
        alive_e &= ~(removed[cur.edges_u] | removed[cur.edges_v])
        m_alive = int(np.count_nonzero(alive_e))
    in_mis |= ~removed
    return BaselineResult(
        solution=np.nonzero(in_mis)[0].astype(np.int64),
        iterations=it,
        rounds=it,
        edge_trace=tuple(trace),
        algorithm="luby_mis_randomized",
    )


def _dominated_by(g: Graph, alive_e: np.ndarray, i_mask: np.ndarray) -> np.ndarray:
    """bool[n]: nodes with a surviving-edge neighbour in ``i_mask``.

    Exact residual-graph ``degrees_toward(i_mask) > 0`` without the rebuild:
    arcs are filtered by the alive-edge mask, so removed nodes (whose edges
    are all dead) can never be flagged.
    """
    arc_hit = alive_e[g.arc_edge_ids] & i_mask[g.indices]
    return segment_sum(arc_hit.astype(np.int64), g.indptr) > 0


# ---------------------------------------------------------------------- #
# MIS, pairwise z-values from a small seed
# ---------------------------------------------------------------------- #


def luby_mis_pairwise(
    g: Graph,
    seed: int,
    *,
    max_iterations: int = 10_000,
) -> BaselineResult:
    """Luby MIS where each iteration's z-values come from one random seed of
    a pairwise-independent family (O(log n) random bits per iteration)."""
    rng = np.random.default_rng(seed)
    family = make_family(universe=max(g.n, 2), k=2)
    ids = np.arange(g.n, dtype=np.int64)
    in_mis = np.zeros(g.n, dtype=bool)
    removed = np.zeros(g.n, dtype=bool)
    cur = g
    alive_e = np.ones(cur.m, dtype=bool)
    m_alive = cur.m
    trace: list[int] = []
    it = 0
    maxkey = np.uint64(2**63 - 1)
    stride = np.uint64(g.n + 1)
    while m_alive > 0:
        it += 1
        if it > max_iterations:
            raise RuntimeError("pairwise Luby failed to converge")
        cur, alive_e = _maybe_compact(cur, alive_e, m_alive)
        trace.append(m_alive)
        deg_alive = alive_edge_degrees(cur, alive_e)
        iso = (deg_alive == 0) & ~removed
        in_mis |= iso
        removed |= iso
        s = int(rng.integers(0, family.size))
        key = family.evaluate(s, ids) * stride + ids.astype(np.uint64)
        nbr_min = neighbor_min(cur, key, exclude=removed, fill=maxkey)
        i_mask = (deg_alive > 0) & (key < nbr_min)
        dominated = _dominated_by(cur, alive_e, i_mask)
        kill = i_mask | dominated
        in_mis |= i_mask
        removed |= kill
        alive_e &= ~(removed[cur.edges_u] | removed[cur.edges_v])
        m_alive = int(np.count_nonzero(alive_e))
    in_mis |= ~removed
    return BaselineResult(
        solution=np.nonzero(in_mis)[0].astype(np.int64),
        iterations=it,
        rounds=it,
        edge_trace=tuple(trace),
        algorithm="luby_mis_pairwise",
    )


# ---------------------------------------------------------------------- #
# Matching
# ---------------------------------------------------------------------- #


def luby_matching_randomized(
    g: Graph,
    seed: int,
    *,
    max_iterations: int = 10_000,
) -> BaselineResult:
    """Luby-style matching: local-minimum edges join; matched nodes leave."""
    rng = np.random.default_rng(seed)
    cur = g
    alive_e = np.ones(cur.m, dtype=bool)
    alive_ids = np.nonzero(alive_e)[0]
    pairs: list[np.ndarray] = []
    trace: list[int] = []
    it = 0
    while alive_ids.size > 0:
        it += 1
        if it > max_iterations:
            raise RuntimeError("randomized Luby matching failed to converge")
        compacted, (cur, alive_e) = _maybe_compact_flagged(
            cur, alive_e, alive_ids.size
        )
        if compacted:
            alive_ids = np.nonzero(alive_e)[0]
        eu, ev = cur.edges_u, cur.edges_v
        trace.append(alive_ids.size)
        z = rng.random(alive_ids.size)
        z_full = np.full(cur.m, np.inf)
        z_full[alive_ids] = z
        node_min = segment_min(z_full[cur.arc_edge_ids], cur.indptr, np.inf)
        au, av = eu[alive_ids], ev[alive_ids]
        matched = (z == node_min[au]) & (z == node_min[av])
        # Ties (prob 0 in theory, possible in floats): break by edge id.
        # Winners are node-disjoint except under an exact float tie, so
        # detect conflicts vectorized and fall back to the sequential
        # tie-break (identical output) only when one actually occurred.
        if matched.any():
            eids = alive_ids[matched]
            ends = np.concatenate([eu[eids], ev[eids]])
            if np.bincount(ends, minlength=g.n).max() <= 1:
                pass  # conflict-free: keep every winner
            else:
                used = np.zeros(g.n, dtype=bool)
                keep = []
                for e in eids.tolist():
                    a, b = int(eu[e]), int(ev[e])
                    if not used[a] and not used[b]:
                        used[a] = used[b] = True
                        keep.append(e)
                eids = np.asarray(keep, dtype=np.int64)
        else:
            eids = np.empty(0, dtype=np.int64)
        if eids.size == 0:
            continue  # resample (vanishingly rare)
        pairs.append(np.stack([eu[eids], ev[eids]], axis=1))
        kill = np.zeros(g.n, dtype=bool)
        kill[eu[eids]] = True
        kill[ev[eids]] = True
        alive_e &= ~(kill[eu] | kill[ev])
        alive_ids = np.nonzero(alive_e)[0]
    sol = (
        np.concatenate(pairs, axis=0) if pairs else np.empty((0, 2), dtype=np.int64)
    )
    return BaselineResult(
        solution=sol,
        iterations=it,
        rounds=it,
        edge_trace=tuple(trace),
        algorithm="luby_matching_randomized",
    )
