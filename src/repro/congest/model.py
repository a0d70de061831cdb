"""CONGEST model substrate (the paper's stated follow-up direction).

The conclusion of the paper: *"We expect our method of derandomizing the
sampling of a low-degree graph ... will prove useful for derandomizing many
more problems in low space or limited bandwidth models (e.g., the CONGEST
model)."*  This package carries the derandomized-Luby machinery into
CONGEST as that extension.

Model: the communication network *is* the input graph; per round every node
may send one ``O(log n)``-bit message over each incident edge.  Global
coordination (the aggregate/broadcast steps of the method of conditional
expectations) is no longer O(1): it costs ``Theta(D)`` rounds over a BFS
tree, where ``D`` is the graph's diameter -- the fundamental price CONGEST
pays relative to CONGESTED CLIQUE / MPC.

The context below computes the BFS-tree depth of the (connected components
of the) input once and charges the seed fix's per-bit vote upcast and
broadcast over that tree accordingly.  It is a :class:`~repro.models.ledger.RoundLedger`:
``words_moved`` counts one word per message, the bandwidth ceiling is
``2 m`` words per round (one message per edge direction), and an optional
per-node storage ceiling makes locality violations raise
:class:`~repro.models.ledger.SpaceExceededError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.csgraph as csgraph

from ..graphs.graph import Graph
from ..graphs.power import adjacency_matrix
from ..models.ledger import RoundLedger

__all__ = ["CongestContext", "bfs_depth"]


def bfs_depth(g: Graph) -> int:
    """Max BFS-tree depth over connected components, each tree rooted at its
    component's lowest id.  A BFS tree's depth is its root's eccentricity, so
    ``depth <= D <= 2 * depth`` for a component of diameter ``D``: a lower
    bound on the diameter, within a factor of 2."""
    if g.n == 0 or g.m == 0:
        return 0
    a = adjacency_matrix(g)
    _, labels = csgraph.connected_components(a, directed=False)
    roots = np.unique(labels, return_index=True)[1]
    # One multi-source search: roots share no component, so each node's
    # nearest root is its own component's.
    dist = csgraph.dijkstra(a, indices=roots, unweighted=True, min_only=True)
    return int(dist.max())


@dataclass
class CongestContext(RoundLedger):
    """Round accounting for a CONGEST run on communication graph ``g``."""

    model = "congest"

    graph: Graph
    #: Optional per-node storage ceiling in words (``None`` = unbounded).
    space_per_node: int | None = None
    #: Ablation: pipeline the per-bit seed votes over the BFS tree so one
    #: phase's seed fix costs ``O(D + seed_bits)`` rounds instead of the
    #: sequential ``2 * D * seed_bits`` (see :meth:`charge_seed_fix`).
    pipeline_seed_fix: bool = False
    #: Longest seed (in bits) any per-bit voting pass fixed — the instance
    #: value of the ``seed_bits`` cost-model symbol.
    seed_bits_seen: int = 0
    depth: int = field(init=False)

    def __post_init__(self) -> None:
        self.depth = bfs_depth(self.graph)

    @property
    def space_ceiling(self) -> int | None:
        return self.space_per_node

    @property
    def bandwidth_ceiling(self) -> int | None:
        """One word per edge direction per round: ``2 m`` words."""
        return 2 * self.graph.m

    def snapshot_detail(self) -> dict:
        return {
            "n": self.graph.n,
            "m": self.graph.m,
            "bfs_depth": self.depth,
            "pipeline_seed_fix": self.pipeline_seed_fix,
            "seed_bits": self.seed_bits_seen,
        }

    # ------------------------------------------------------------------ #
    # Model charging primitives
    # ------------------------------------------------------------------ #

    def charge_local(self, category: str = "local") -> None:
        """One message over every edge simultaneously: 1 round."""
        self.charge(category, 1, words=2 * self.graph.m)

    def charge_seed_fix(self, seed_bits: int, category: str = "seed_fix") -> None:
        """Conditional expectations in CONGEST: the O(log n)-bit seed is
        fixed in chunks of one *bit* (each edge carries O(log n) bits, but
        the vote aggregation is the bottleneck): per bit, one upcast + one
        downcast -> ``2 * depth * seed_bits`` rounds.

        This is exactly the round structure of the CHPS-style voting that
        the paper improves on in CLIQUE/MPC -- in CONGEST the tree cost is
        unavoidable without further ideas, which is why the paper flags the
        model as future work rather than claiming a bound.

        With ``pipeline_seed_fix`` the per-bit rounds overlap: bit ``b``'s
        votes start ascending one level behind bit ``b-1``'s broadcast
        (standard BFS-tree pipelining -- the votes for different bits use
        disjoint message slots per edge per round), so the phase costs
        ``2 * depth + 2 * (seed_bits - 1)`` rounds, i.e. ``O(D + seed_bits)``.
        The word volume is unchanged: the same votes move either way.
        """
        bits = max(1, seed_bits)
        self.seed_bits_seen = max(self.seed_bits_seen, bits)
        depth = max(1, self.depth)
        if self.pipeline_seed_fix:
            rounds = 2 * depth + 2 * (bits - 1)
        else:
            rounds = 2 * depth * bits
        self.charge(category, rounds, words=2 * self.graph.n * bits)
