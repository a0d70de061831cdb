"""The derandomized-Luby phase kernel every solver runs.

One Luby phase is the same computation in every model and every section of
the paper: hash node ids, edge ids or Section-5 colours with a pairwise
seed, keep the strict local minima, and fix a seed whose progress meets the
lemma's target.  This module is that phase's one implementation:

* :class:`NodePhase` -- the node form: live vertices whose key is strictly
  below every neighbour's over one adjacency, plus their kill mask (the
  vertices joining the independent set and their neighbours);
* :class:`EdgePhase` -- the edge form: edges whose key is the strict minimum
  over the edges at both endpoints;
* :func:`a_set` -- the ``A`` set of Corollary 15 that the Section-5 and
  CONGESTED CLIQUE objectives weigh.

Each phase reads one :class:`~repro.graphs.kernels.SegmentTable` per
adjacency, shared by the min and the any reduction, and evaluates whole
seed blocks at once.  Besides its keys a phase holds no more than its arcs:
the adjacency's own CSR, remapped only for an edge subset.  The winner's
mask, and in the node form its kill mask, is its row of the last block the
scan evaluated, so a phase whose scan stops in that block evaluates its
winner once.  What differs per call site stays there: the key source (ids
or colours), the objective and its target, the scan start and budget, and
what the phase costs, which the model's
:class:`~repro.models.ledger.RoundLedger` charges.  Every phase fixes its
seed with the one scan of :mod:`repro.derand.strategies`, and is dropped
before the residual graph and the next phase are built.

Keys are ``z * (N + 1) + id`` for ids in ``[0, N)``: a strict total order
that breaks hash ties by id.  They are uint32 when every key fits below
the uint32 sentinel and uint64 otherwise; the kernel takes them as the
family and ids make them and adds no range check (uint64 keys may wrap).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..derand import strategies as _strategies
from ..derand.strategies import SeedSelection, select_seed_batch
from ..graphs.graph import Graph
from ..graphs.kernels import SegmentTable, segment_sum

__all__ = ["EdgePhase", "NodePhase", "a_set"]

#: Sentinel of uint64 keys: dead columns and empty segments hold it, and a
#: key at or above it never wins.
MAXKEY = np.uint64(2**63 - 1)

#: Bytes one seed block of a phase may gather.  A block reads its keys
#: at the table's arcs plus as many flags, so the seed chunk is clamped to
#: keep one block under this.
_SEED_BLOCK_BYTES = 1 << 28


def a_set(g: Graph) -> tuple[np.ndarray, float]:
    """The ``A`` set on ``g`` plus its degree weight.

    ``A = {v : sum_{u ~ v} 1/d(u) >= 1/3}``; Corollary 15 gives
    ``sum_{v in A} d(v) >= |E| / 2``.
    """
    deg = g.degrees().astype(np.float64)
    inv = np.zeros(g.n, dtype=np.float64)
    nz = deg > 0
    inv[nz] = 1.0 / deg[nz]
    acc = np.zeros(g.n, dtype=np.float64)
    np.add.at(acc, g.edges_u, inv[g.edges_v])
    np.add.at(acc, g.edges_v, inv[g.edges_u])
    a_mask = (acc >= 1.0 / 3.0 - 1e-12) & (deg > 0)
    return a_mask, float(deg[a_mask].sum())


@dataclass
class _Block:
    """The seed block a scan evaluated last, with the node form's kill
    mask once the objective has computed it on these masks."""

    seeds: np.ndarray
    masks: np.ndarray
    kill: np.ndarray | None = None


class _LubyPhase:
    """Keys, seed blocks and selection shared by both forms."""

    _block: _Block | None = None
    #: The winner of the last :meth:`select`: its mask and, when the
    #: objective computed it, its kill mask.
    _winner: tuple[np.ndarray, np.ndarray | None]

    def __init__(
        self, family, xs: np.ndarray, ids: np.ndarray, universe: int,
        table: SegmentTable, width: int,
    ) -> None:
        self.family = family
        self.table = table
        self._xs = xs
        fits = family.range * (universe + 1) + universe < 2**32
        self.dtype = np.uint32 if fits else np.uint64
        self.sentinel = np.uint32(2**32 - 1) if fits else MAXKEY
        self._stride = self.dtype(universe + 1)
        self._ids = ids.astype(self.dtype)
        # Per seed, a block gathers the table's keys and as many flags.
        itemsize = np.dtype(self.dtype).itemsize
        self.seed_bytes = (table.cells + width) * (itemsize + 1)

    def keys(self, seeds: np.ndarray) -> np.ndarray:
        """``(S, len(ids))`` keys ``z * (N + 1) + id`` for a seed block."""
        z = self.family.evaluate_batch(seeds, self._xs).astype(self.dtype, copy=False)
        return z * self._stride + self._ids[None, :]

    def select(
        self, objective, *, target: float, max_trials: int, start: int = 0
    ) -> tuple[SeedSelection, np.ndarray]:
        """Scan for a seed whose ``objective(masks) -> float64[S]`` meets
        ``target``; return the selection and its mask.

        The scan is :func:`~repro.derand.strategies.select_seed_batch` with
        ``max_trials`` and ``start``.  Blocks ramp up to
        ``DEFAULT_SEED_CHUNK`` seeds, read at call time, clamped so one
        block gathers at most ``_SEED_BLOCK_BYTES``; no block size changes
        the selection.  The mask is the winner's row of the last block the
        scan evaluated; only an unsatisfied scan whose best seed lies in an
        earlier block evaluates it again.
        """
        chunk = min(
            _strategies.DEFAULT_SEED_CHUNK,
            max(1, _SEED_BLOCK_BYTES // self.seed_bytes),
        )

        def evaluate(seeds: np.ndarray) -> np.ndarray:
            self._block = None  # let the previous block go first
            self._block = _Block(seeds, self.masks(seeds))
            return objective(self._block.masks)

        sel = select_seed_batch(
            self.family.size,
            evaluate,
            target=target,
            max_trials=max_trials,
            start=start,
            chunk_size=chunk,
        )
        block, self._block = self._block, None
        rows = np.flatnonzero(block.seeds == sel.seed)
        if rows.size:
            row = int(rows[0])
            kill = None if block.kill is None else block.kill[row].copy()
            self._winner = (block.masks[row].copy(), kill)
        else:
            seeds = np.array([sel.seed], dtype=np.int64)
            self._winner = (self.masks(seeds)[0], None)
        return sel, self._winner[0]


class NodePhase(_LubyPhase):
    """Node form over ``adjacency`` (ambient vertex set ``[0, n)``).

    ``live`` are the vertices that get keys (default: those with an
    incident edge); the rest hold the sentinel and never join.  ``colors``
    switches the hash input from the ids to ``colors[live]``.
    """

    def __init__(
        self,
        adjacency: Graph,
        family,
        *,
        live: np.ndarray | None = None,
        colors: np.ndarray | None = None,
    ) -> None:
        n = self.n = adjacency.n
        if live is None:
            live = np.flatnonzero(adjacency.degrees() > 0)
        self.live = live
        table = SegmentTable(adjacency.indices, adjacency.indptr)
        xs = live if colors is None else colors[live]
        super().__init__(family, xs, live, n, table, n)

    def masks(self, seeds: np.ndarray) -> np.ndarray:
        """bool ``(S, n)``: live vertices strictly below all neighbours."""
        key = np.full((seeds.size, self.n), self.sentinel, dtype=self.dtype)
        key[:, self.live] = self.keys(seeds)
        return key < self.table.min(key, self.sentinel)

    def kill(self, i_mask: np.ndarray) -> np.ndarray:
        """bool ``(S, n)``: the joining vertices and their neighbours."""
        out = i_mask | self.table.any(i_mask)
        if self._block is not None and i_mask is self._block.masks:
            self._block.kill = out
        return out

    def winner_kill(self) -> np.ndarray:
        """bool ``(n,)``: the kill mask of the seed :meth:`select` returned.

        It is the winner's row of the kill the objective computed on the
        scan's last block, and is evaluated here only when there is none.
        """
        mask, kill = self._winner
        return self.kill(mask[None, :])[0] if kill is None else kill


class EdgePhase(_LubyPhase):
    """Edge form over the edges ``eids`` of ``g`` (default: all of them).

    Per-node minima read ``g``'s CSR rows, for a subset restricted to the
    arcs of ``eids`` as positions into ``eids``.
    """

    def __init__(self, g: Graph, family, eids: np.ndarray | None = None) -> None:
        if eids is None:
            eids = np.arange(g.m, dtype=np.int64)
            self.us, self.vs = g.edges_u, g.edges_v
            table = SegmentTable(g.arc_edge_ids, g.indptr)
        else:
            self.us, self.vs = g.edges_u[eids], g.edges_v[eids]
            pos = np.full(g.m, -1, dtype=np.int64)
            pos[eids] = np.arange(eids.size, dtype=np.int64)
            arc_pos = pos[g.arc_edge_ids]
            kept = arc_pos >= 0
            indptr = np.zeros(g.n + 1, dtype=np.int64)
            np.cumsum(segment_sum(kept.astype(np.int64), g.indptr), out=indptr[1:])
            table = SegmentTable(arc_pos[kept], indptr)
        super().__init__(family, eids, eids, g.m, table, eids.size)

    def masks(self, seeds: np.ndarray) -> np.ndarray:
        """bool ``(S, len(eids))``: edges that are the minimum at both ends."""
        key = self.keys(seeds)
        node_min = self.table.min(key, self.sentinel)
        return (key == node_min[:, self.us]) & (key == node_min[:, self.vs])
