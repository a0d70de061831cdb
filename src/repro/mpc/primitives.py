"""Lemma-4 communication primitives on the literal MPC engine.

Goodrich et al. [30] show sorting and prefix sums take O(1) rounds with
``S = n^eps`` space.  We implement executable versions with real message
passing on :class:`~repro.mpc.engine.MPCEngine`:

* :func:`distributed_sort_packed` -- PSRS-style sample sort over packed
  int64 arrays: local sort, regular samples to a coordinator, splitter
  broadcast, bucket exchange, local sort.  3 rounds, independent of input
  size whenever ``M (M - 1) <= S`` (one level of the Goodrich tree; the
  general case recurses, adding O(1/eps) = O(1) levels).
* :func:`distributed_prefix_sums` -- local sums up a machine tree of fan-out
  ``S``, offsets back down: ``2 * ceil(log_S M) + O(1)`` rounds = O(1).
* :func:`broadcast_word` -- S-ary broadcast tree.

These functions both *do* the communication and return the exact number of
engine rounds consumed, so tests can assert the O(1) claims numerically.
The sort and the broadcast run on
:meth:`~repro.mpc.engine.MPCEngine.round_packed`; the prefix sums move
item-granular tuples through :meth:`~repro.mpc.engine.MPCEngine.round`.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..models.plane import MessageBlock, Table, last_wins, table
from .engine import MPCEngine

__all__ = [
    "broadcast_word",
    "distributed_prefix_sums",
    "distributed_sort_packed",
]


def broadcast_word(engine: MPCEngine, value: int, root: int = 0) -> int:
    """Deliver the word ``value`` from ``root`` to every machine; returns
    rounds used.

    Uses an S-ary doubling tree over machine ids: in each round every machine
    that already holds the token forwards it to up to ``fanout`` new
    machines.  ``ceil(log_fanout M)`` rounds.  The token is a one-row
    ``"bcast"`` table row (tag + value = 2 words), stored at the root under
    the storage ceiling; a holder forwards the last one it stores.
    """
    m = engine.num_machines
    fanout = max(2, engine.space // 2)  # each "bcast" row costs 2 words
    engine.store(Table("bcast", [root], [[value]]))
    holds = np.zeros(m, dtype=bool)
    holds[root] = True
    rounds0 = engine.rounds_executed

    while not holds.all():
        frontier, pending = np.flatnonzero(holds), np.flatnonzero(~holds)
        dest = pending[: frontier.size * fanout]
        src = frontier[np.arange(dest.size) // fanout]

        def step(tables: dict[str, Table]):
            tokens = tables["bcast"]
            holders, last = last_wins(tokens.machine, tokens.col(0))
            rows = last[np.searchsorted(holders, src)]
            return tables.values(), [MessageBlock("bcast", src, dest, rows)]

        engine.round_packed(step)
        holds[dest] = True
    return engine.rounds_executed - rounds0


def distributed_prefix_sums(engine: MPCEngine) -> int:
    """Replace each machine's numeric items with their global prefix sums.

    Item order is machine-major (machine 0's items first).  Returns rounds.
    Implementation: one round sends local sums up a fan-out-``S/2`` tree;
    coordinator levels compute running offsets; offsets flow back down; a
    final local pass rewrites items.  Round count is
    ``2 * ceil(log_fanout M)``, constant for ``M <= poly(S)``.
    """
    m = engine.num_machines
    # Each ("sum", src, value) message costs 3 words and a leader also keeps
    # its own items, so a fan-out of S/6 keeps every aggregator within S.
    fanout = max(2, engine.space // 6)
    levels = max(1, math.ceil(math.log(max(m, 2), fanout)))
    rounds0 = engine.rounds_executed

    # ---- upsweep: leaves send ("sum", mid, value) to their level parent ----
    # Tree: parent of machine x at level l is x // fanout^(l+1) * fanout^l ...
    # With m small relative to fanout in practice this is a single round to
    # machine 0; we implement the general multi-level loop.
    local_sums = {}

    def collect_step(mid: int, items: list[Any]):
        s = sum(x for x in items if not isinstance(x, tuple))
        local_sums[mid] = s
        return items, ([(0, ("sum", mid, s))] if mid != 0 else [])

    # For m > fanout the single coordinator would exceed capacity; stage the
    # upsweep through intermediate aggregators.
    if m <= fanout:
        engine.round(collect_step)
        # machine 0 computes offsets and sends them back
        def offsets_step(mid: int, items: list[Any]):
            if mid != 0:
                return items, []
            sums = {0: sum(x for x in items if not isinstance(x, tuple))}
            keep = []
            for it in items:
                if isinstance(it, tuple) and it[0] == "sum":
                    sums[it[1]] = it[2]
                else:
                    keep.append(it)
            running = 0
            sends = []
            for j in range(m):
                if j == 0:
                    offset0 = running
                else:
                    sends.append((j, ("offset", running)))
                running += sums.get(j, 0)
            keep.append(("offset", offset0))
            return keep, sends

        engine.round(offsets_step)
    else:
        # Multi-level: group machines into blocks of `fanout`; block leaders
        # aggregate, then leaders aggregate at machine 0, then offsets fan
        # back out through leaders.  (Two extra rounds; still O(1).)
        def to_leader(mid: int, items: list[Any]):
            s = sum(x for x in items if not isinstance(x, tuple))
            leader = (mid // fanout) * fanout
            if mid == leader:
                return items + [("sum", mid, s)], []
            return items, [(leader, ("sum", mid, s))]

        engine.round(to_leader)

        def leaders_to_root(mid: int, items: list[Any]):
            if mid % fanout != 0:
                return items, []
            block_total = sum(it[2] for it in items if isinstance(it, tuple) and it[0] == "sum")
            if mid == 0:
                return items + [("blocksum", mid, block_total)], []
            return items, [(0, ("blocksum", mid, block_total))]

        engine.round(leaders_to_root)

        def root_offsets(mid: int, items: list[Any]):
            if mid != 0:
                return items, []
            blocks = {}
            keep = []
            for it in items:
                if isinstance(it, tuple) and it[0] == "blocksum":
                    blocks[it[1]] = it[2]
                else:
                    keep.append(it)
            running = 0
            sends = []
            for leader in range(0, m, fanout):
                if leader == 0:
                    keep.append(("blockoffset", running))
                else:
                    sends.append((leader, ("blockoffset", running)))
                running += blocks.get(leader, 0)
            return keep, sends

        engine.round(root_offsets)

        def leaders_fan_out(mid: int, items: list[Any]):
            if mid % fanout != 0:
                return items, []
            block_off = next(
                it[1] for it in items if isinstance(it, tuple) and it[0] == "blockoffset"
            )
            sums = {
                it[1]: it[2] for it in items if isinstance(it, tuple) and it[0] == "sum"
            }
            keep = [
                it
                for it in items
                if not (isinstance(it, tuple) and it[0] in ("sum", "blockoffset", "blocksum"))
            ]
            running = block_off
            sends = []
            for j in range(mid, min(mid + fanout, m)):
                if j == mid:
                    keep.append(("offset", running))
                else:
                    sends.append((j, ("offset", running)))
                running += sums.get(j, 0)
            return keep, sends

        engine.round(leaders_fan_out)

    # ---- local rewrite: items -> prefix sums using the received offset ----
    def rewrite_step(mid: int, items: list[Any]):
        offset = 0
        values = []
        for it in items:
            if isinstance(it, tuple) and it[0] == "offset":
                offset = it[1]
            elif isinstance(it, tuple) and it[0] == "sum":
                continue
            else:
                values.append(it)
        if not values:
            return [], []
        prefixed = (offset + np.cumsum(np.asarray(values))).tolist()
        return prefixed, []

    engine.round(rewrite_step)
    used = engine.rounds_executed - rounds0
    assert used <= 2 * levels + 3, "prefix sums exceeded O(1)-round budget"
    return used


def distributed_sort_packed(engine: MPCEngine) -> int:
    """Sort all values globally; every machine holds raw ``""`` rows.

    PSRS sample sort in 3 rounds:
      1. local sort; each machine sends ``M - 1`` regular samples to
         machine 0 (2-word tagged rows);
      2. machine 0 picks ``M - 1`` splitters and sends the splitter vector
         (``M`` words: tag + splitters) to every other machine;
      3. machines partition locally and send each bucket value (1 word) to
         its machine; the received buckets are then sorted locally (free:
         local computation).

    Each step is one array program over the cluster's ``(machine, value)``
    rows (:meth:`~repro.mpc.engine.MPCEngine.round_packed`).
    Post-condition: the ``""`` table lists globally sorted values in
    machine-major order.  Requires ``M * (M - 1) <= S`` (the coordinator
    holds all samples).  Load the input with
    :meth:`~repro.mpc.engine.MPCEngine.load_balanced_packed`; any other
    stored item or table raises ``TypeError``.  Returns rounds used.
    """
    for mid, items in enumerate(engine.storage):
        if items:
            raise TypeError(
                f"machine {mid} stores a {type(items[0]).__name__}; "
                "distributed_sort_packed sorts packed int64 arrays -- "
                "load the input with MPCEngine.load_balanced_packed"
            )
    for tag, t in engine.tables.items():
        if tag and t.rows:
            raise TypeError(
                f"machine {int(t.machine.min())} stores a {tag!r} table; "
                "distributed_sort_packed sorts the raw '' table"
            )
    m = engine.num_machines
    if m == 1:
        engine.tables = {"": _local_sort(table(engine.tables, "", 1))}
        return 0
    if m * (m - 1) > engine.space:
        raise ValueError(
            "single-level sample sort requires M*(M-1) <= S; "
            "use more space or fewer machines"
        )
    rounds0 = engine.rounds_executed
    picks = np.arange(1, m)

    def sample_step(tables: dict[str, Table]):
        values = _local_sort(table(tables, "", 1))
        counts = np.bincount(values.machine, minlength=m)
        starts = np.cumsum(counts) - counts
        holders = np.flatnonzero(counts)
        at = starts[holders, None] + (picks * counts[holders, None]) // m
        samples = values.col(0)[at.ravel()]
        src = np.repeat(holders, m - 1)
        return [values], [MessageBlock("sample", src, 0, samples)]

    engine.round_packed(sample_step)

    def splitter_step(tables: dict[str, Table]):
        samples = np.sort(table(tables, "sample", 1).on(0)[:, 0])
        if samples.size:
            splitters = samples[(picks * samples.size) // m]
        else:
            splitters = np.empty(0, dtype=np.int64)
        row = splitters[None, :]
        kept = [table(tables, "", 1), Table("splitters", [0], row)]
        others = np.arange(1, m, dtype=np.int64)
        return kept, [
            MessageBlock("splitters", 0, others, np.repeat(row, m - 1, axis=0))
        ]

    engine.round_packed(splitter_step)

    def partition_step(tables: dict[str, Table]):
        # Machine 0 sent every machine the same splitter row.
        splitters = tables["splitters"].data[0]
        values = table(tables, "", 1)
        dest = np.searchsorted(splitters, values.col(0), side="right")
        return [], [MessageBlock("", values.machine, dest, values.data)]

    engine.round_packed(partition_step)

    # Local sort of received buckets (local computation, no round charge).
    engine.tables = {"": _local_sort(table(engine.tables, "", 1))}
    return engine.rounds_executed - rounds0


def _local_sort(values: Table) -> Table:
    """Each machine's raw values sorted, machines in id order."""
    return values.take(np.lexsort((values.col(0), values.machine)))
