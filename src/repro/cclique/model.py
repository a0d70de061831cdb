"""CONGESTED CLIQUE model substrate (paper Section 1.1.2).

``n`` nodes on a complete communication graph; per round, every ordered pair
may exchange one ``O(log n)``-bit message, so a node sends and receives at
most ``n - 1`` messages per round.  Lenzen's routing theorem [41] upgrades
this: any routing instance in which every node is source and destination of
at most ``n`` messages can be delivered in ``O(1)`` rounds -- the primitive
behind "collect the remaining graph onto one node" (the trick that lets
[15]-style algorithms finish once ``|E| <= n``).

As with :mod:`repro.mpc`, data movement is simulated centrally; the context
*verifies* the model constraints (message counts per node) and charges
rounds.  It is a :class:`~repro.models.ledger.RoundLedger`: ``words_moved``
counts one word per ``O(log n)``-bit message, the bandwidth ceiling is the
``n`` messages per node per round that Lenzen routing tolerates, and an
optional ``space_per_node`` ceiling turns the "fits on one node" arguments
into hard :class:`~repro.models.ledger.SpaceExceededError` checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..models.ledger import RoundLedger

__all__ = ["CongestedCliqueContext", "LENZEN_ROUNDS"]

#: Rounds charged per Lenzen routing invocation (the theorem gives O(1);
#: Lenzen's construction uses 16, commonly cited as "2 phases"; we charge 2).
LENZEN_ROUNDS = 2


@dataclass
class CongestedCliqueContext(RoundLedger):
    """Model state for a CONGESTED CLIQUE run on ``n`` nodes."""

    model = "congested-clique"

    n: int
    #: Optional per-node storage ceiling in words (``None`` = unbounded);
    #: the "collect the remaining graph onto one node" step observes
    #: against it, so an infeasible collect fails loudly.
    space_per_node: int | None = None

    @property
    def word_bits(self) -> int:
        """Message size ``O(log n)`` -- one edge / one id per message."""
        return max(1, int(np.ceil(np.log2(max(self.n, 2)))) * 2)

    @property
    def space_ceiling(self) -> int | None:
        return self.space_per_node

    @property
    def bandwidth_ceiling(self) -> int | None:
        """Lenzen routing: at most ``n`` messages per node per round."""
        return self.n

    def snapshot_detail(self) -> dict:
        return {"n": self.n, "word_bits": self.word_bits}

    # ------------------------------------------------------------------ #
    # Model charging primitives
    # ------------------------------------------------------------------ #

    def charge_broadcast(self, category: str = "broadcast") -> None:
        """One node sends the same O(log n)-bit value to everyone: 1 round."""
        self.charge(category, 1, words=max(0, self.n - 1))

    def charge_aggregate(self, category: str = "aggregate") -> None:
        """Sum/min of one value per node to a leader: 1 round (star)."""
        self.charge(category, 1, words=max(0, self.n - 1))

    def charge_collect_graph(self, m: int, category: str = "collect") -> None:
        """Collect ``m <= n`` edges onto a single node (Lenzen): O(1) rounds."""
        if m > self.n:
            raise ValueError(f"cannot collect {m} edges onto one node (> n)")
        self.observe_load(0, m, "collecting remainder graph")
        self.charge(category, LENZEN_ROUNDS, words=int(m))
