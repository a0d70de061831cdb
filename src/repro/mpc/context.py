"""The vectorised MPC accounting layer: model quantities and charge rules.

An :class:`MPCContext` fixes the instance-level model quantities -- ``n``,
``S = space_factor * n^eps`` (words per machine), the machine count -- and
is the :class:`~repro.models.ledger.RoundLedger` an algorithm run charges
against.  The centrally executed data-parallel steps are billed as the
paper's accounting does:

* every Lemma-4 primitive (sort / prefix sums / aggregation / broadcast
  over machine groups) costs one round per invocation;
* gathering 2-hop neighbourhoods costs 2 rounds (sort + request round);
* gathering ``r``-hop neighbourhoods costs ``2 max(1, ceil(log2 r))``
  rounds (graph exponentiation by doubling, Section 5.2.1);
* fixing one ``O(log n)``-bit seed by conditional expectations costs 2
  rounds per ``log2 S``-bit chunk (Section 2.4: "chunks of
  log S = Theta(log n) bits at a time").

The total-space budget follows Theorems 7/14: ``O(m + n^{1+eps})`` words; we
instantiate the O(.) with an explicit ``total_factor`` so violations fail
loudly rather than being absorbed into asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..models.ledger import RoundLedger, SpaceExceededError

if TYPE_CHECKING:
    from ..core.params import Params
    from ..graphs.graph import Graph

__all__ = ["MPCContext"]


@dataclass
class MPCContext(RoundLedger):
    """Model state for one algorithm run on an ``n``-vertex, ``m``-edge input.

    Parameters
    ----------
    n, m:
        Input size.
    eps:
        Local-space exponent (``S = Theta(n^eps)``).
    space_factor:
        The constant in ``S = space_factor * n^eps`` (the paper needs
        ``S = O(n^{8 delta}) = O(n^eps)`` to hold 2-hop neighbourhoods after
        sparsification; the constant absorbs the factor 4 from the
        ``2 n^{4 delta} x 2 n^{4 delta}`` bound of Section 3.3).
    total_factor:
        The constant in the global budget ``total_factor * (m + n^{1+eps})``.
    """

    model = "mpc"

    n: int
    m: int
    eps: float = 0.5
    space_factor: float = 32.0
    total_factor: float = 16.0
    #: Longest seed (in bits) any conditional-expectations fix handled —
    #: the instance value of the ``seed_bits`` cost-model symbol.
    seed_bits_seen: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not 0 < self.eps <= 1:
            raise ValueError(f"eps must be in (0, 1], got {self.eps}")
        if self.n < 0 or self.m < 0:
            raise ValueError("n, m must be non-negative")

    @classmethod
    def for_graph(cls, graph: Graph, params: Params) -> MPCContext:
        """The context a solve of ``graph`` under ``params`` bills against."""
        return cls.for_size(graph.n, graph.m, params)

    @classmethod
    def for_size(cls, n: int, m: int, params: Params) -> MPCContext:
        """:meth:`for_graph` of an ``n``-node, ``m``-edge graph, which a
        derived graph's caller knows in closed form before building it."""
        return cls(
            n=n,
            m=m,
            eps=params.eps,
            space_factor=params.space_factor,
            total_factor=params.total_factor,
        )

    # ------------------------------------------------------------------ #
    # Model quantities
    # ------------------------------------------------------------------ #

    @property
    def S(self) -> int:
        """Words of space per machine."""
        base = max(self.n, 2)
        return max(4, math.ceil(self.space_factor * base**self.eps))

    @property
    def num_machines(self) -> int:
        """Machines needed to hold the input: ``ceil((n + 2m) / S)``-ish."""
        return max(1, math.ceil((self.n + 2 * self.m + 1) / self.S))

    @property
    def total_space_budget(self) -> int:
        base = max(self.n, 2)
        return math.ceil(
            self.total_factor * (self.m + base ** (1.0 + self.eps) + self.S)
        )

    @property
    def chunk_bits(self) -> int:
        """Seed bits fixable per conditional-expectations step: ``log2 S``."""
        return max(1, int(math.log2(max(self.S, 2))))

    @property
    def space_ceiling(self) -> int | None:
        return self.S

    @property
    def bandwidth_ceiling(self) -> int | None:
        """Per-round send/receive cap: ``S`` words per machine."""
        return self.S

    def snapshot_detail(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "eps": self.eps,
            "num_machines": self.num_machines,
            "seed_bits": self.seed_bits_seen,
        }

    def observe_loads(self, loads, what: str = "") -> None:
        """Check a data placement: each machine's load (words) against
        ``S`` and their sum against the total budget.  Violations raise
        :class:`~repro.models.ledger.SpaceExceededError` immediately, so an
        unsound layout cannot silently pass benchmarks."""
        arr = np.asarray(loads)
        if arr.size == 0:
            return
        worst = int(arr.argmax())
        self.observe_load(worst, arr[worst], what)
        total = int(arr.sum())
        budget = self.total_space_budget
        if total > budget:
            raise SpaceExceededError(-1, total, budget, f"total {what}")

    # ------------------------------------------------------------------ #
    # Charging helpers
    #
    # Each helper also bills *communication volume* (``words_moved``):
    # aggregation-shaped primitives default to one word per machine per
    # round (partials up / winner down); data-shuffling primitives (sort,
    # gather) take the item count from the call site, which knows it.
    # ------------------------------------------------------------------ #

    def charge_sort(self, category: str = "sort", *, words: int = 0) -> None:
        self.charge(category, 1, words=words)

    def charge_prefix_sum(
        self, category: str = "prefix_sum", *, words: int | None = None
    ) -> None:
        self.charge(category, 1, words=self.num_machines if words is None else words)

    def charge_aggregate(
        self, category: str = "aggregate", *, words: int | None = None
    ) -> None:
        self.charge(category, 1, words=self.num_machines if words is None else words)

    def charge_broadcast(
        self, category: str = "broadcast", *, words: int | None = None
    ) -> None:
        self.charge(category, 1, words=self.num_machines if words is None else words)

    def charge_gather_2hop(self, category: str = "gather", *, words: int = 0) -> None:
        # Sort to collect 1-hop, then one request/response round.
        self.charge(category, 2, words=words)

    def charge_gather_rhop(
        self, r: int, category: str = "gather", *, words: int = 0
    ) -> None:
        # Doubling: one 2-hop gather per doubling of the radius.
        doublings = max(1, math.ceil(math.log2(r))) if r > 1 else 1
        self.charge(category, 2 * doublings, words=words)

    def charge_seed_fix(self, seed_bits: int, category: str = "seed_fix") -> None:
        # Conditional expectations: every chunk aggregates one partial per
        # machine and broadcasts the winning extension back.
        self.seed_bits_seen = max(self.seed_bits_seen, int(seed_bits))
        chunks = max(1, math.ceil(max(1, seed_bits) / self.chunk_bits))
        self.charge(category, 2 * chunks, words=chunks * 2 * self.num_machines)
