"""A literal message-passing MPC engine (machines, rounds, capacity checks).

This is the faithful, executable version of the model of Section "The MPC
model": ``M`` machines with ``S`` words of local space compute in synchronous
rounds; between rounds each machine sends messages addressed to single
machines, and all messages sent and received by a machine in a round must fit
in ``S`` words.

The engine runs the Lemma-4 communication primitives (sorting, prefix
sums, broadcast -- see :mod:`repro.mpc.primitives`) and the
``mis/mpc-engine`` Luby run (:mod:`repro.mpc.distributed_luby`) with real
message passing and exact round counting.  The derandomized graph algorithms themselves run
against the vectorised accounting layer (:mod:`repro.mpc.context`) for
speed; both layers share the same model constants so the round/space
numbers agree.

:meth:`MPCEngine.round_packed` is the round core, one array program per
round over the whole cluster.  Machine state is a set of
:class:`~repro.models.plane.Table`\\ s, one per tag, whose rows carry their
machine's id.  A step is called once with every resident table and returns
the tables to keep plus :class:`~repro.models.plane.MessageBlock`\\ s with
``src`` and ``dest`` columns; the engine then applies the model rules with
arrays (one ``bincount`` per ceiling, see :meth:`MPCEngine.round_packed`),
so its interpreter cost is per table, not per machine or per message.
:meth:`MPCEngine.round` applies the same rules to item-granular
``(dest, item)`` messages over per-machine item lists; only the prefix-sum
demonstration (:func:`~repro.mpc.primitives.distributed_prefix_sums`)
still runs on it.

Storage granularity: a table row costs ``width + 1`` words (``width`` for
raw ``""`` rows); a listed item costs ``word_size(item)`` words, where
scalars cost 1 and containers cost the recursive word count of their
contents.  A machine's load is both together.  The engine is a
:class:`~repro.models.ledger.RoundLedger`: each executed round charges one
round and the words it sent, and every stored machine load is observed
against ``S``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from ..models.ledger import CapacityExceededError, RoundLedger
from ..models.plane import MessageBlock, Table, balanced_owners
from ..obs import trace as _obs

__all__ = ["MPCEngine", "word_size"]


def word_size(item: Any) -> int:
    """Number of machine words a listed item occupies.

    Scalars cost 1; tuples/lists cost the *recursive* word count of their
    contents (a tuple is a record, and a record holding an array holds the
    array's words -- charging ``len(tuple)`` would let an algorithm smuggle
    arbitrarily large payloads inside 3-word messages).  A numpy array
    costs one word per element.
    """
    if isinstance(item, (tuple, list)):
        return sum(word_size(x) for x in item)
    if isinstance(item, np.ndarray):
        return int(item.size)
    return 1


#: A step function maps (machine_id, local_items) to
#: (items_to_keep, [(dest_machine, item), ...]).
StepFn = Callable[[int, list[Any]], tuple[list[Any], list[tuple[int, Any]]]]

#: The packed variant maps every resident table (by tag) to
#: (tables_to_keep, [MessageBlock, ...]) for the whole cluster at once.
PackedStepFn = Callable[
    [dict[str, Table]], tuple[Iterable[Table], Iterable[MessageBlock]]
]


def _first(mask: np.ndarray) -> int:
    """Index of the first true entry, or ``mask.size`` when none is."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else mask.size


@dataclass
class MPCEngine(RoundLedger):
    """``M`` machines of ``S`` words each, executing synchronous rounds."""

    model = "mpc-engine"

    num_machines: int
    space: int
    rounds_executed: int = 0
    #: Per-machine item lists (:meth:`round`).
    storage: list[list[Any]] = field(default_factory=list)
    #: Cluster tables by tag (:meth:`round_packed`).
    tables: dict[str, Table] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_machines < 1:
            raise ValueError("need at least one machine")
        if self.space < 1:
            raise ValueError("space must be >= 1 word")
        if not self.storage:
            self.storage = [[] for _ in range(self.num_machines)]

    @property
    def space_ceiling(self) -> int | None:
        return self.space

    @property
    def bandwidth_ceiling(self) -> int | None:
        """Per-round send/receive cap: ``S`` words per machine."""
        return self.space

    def snapshot_detail(self) -> dict:
        return {"num_machines": self.num_machines}

    # ------------------------------------------------------------------ #
    # Input loading / inspection
    # ------------------------------------------------------------------ #

    def load_balanced(self, items: Iterable[Any]) -> None:
        """Distribute input items across machines in contiguous blocks,
        ``ceil(N / M)`` per machine (the model's arbitrary initial split).

        Loading new input starts a fresh computation: stored items and
        tables, the round counter and the whole bill (rounds, words, space
        high-water mark) are reset, so an engine instance can be reused
        across demonstrations without stale accounting.
        """
        self._restart()
        data = list(items)
        per = -(-len(data) // self.num_machines) if data else 0
        for mid in range(self.num_machines):
            block = data[mid * per : (mid + 1) * per]
            self.observe_load(mid, sum(word_size(x) for x in block), "storing")
            self.storage[mid] = block

    def load_balanced_packed(self, values: np.ndarray) -> None:
        """:meth:`load_balanced` for a packed int64 array: the values
        become the raw ``""`` table, split in the same contiguous
        ``ceil(N / M)`` blocks at one word each.
        """
        self._restart()
        data = np.asarray(values, dtype=np.int64)
        self.store(Table("", balanced_owners(data.size, self.num_machines), data))

    def store(self, rows: Table) -> None:
        """Append ``rows`` to the resident table of their tag (local
        computation, no round) and observe the storage ceiling."""
        held = self.tables.get(rows.tag)
        merged = rows if held is None else Table.concat([held, rows])
        tables = {**self.tables, rows.tag: merged}
        self._observe_loads(self._loads(tables))
        self.tables = tables

    def machine_load(self, mid: int) -> int:
        return int(self._loads(self.tables)[mid])

    def all_items(self) -> list[Any]:
        """Concatenation of all machines' listed items, machine order."""
        out: list[Any] = []
        for st in self.storage:
            out.extend(st)
        return out

    def _restart(self) -> None:
        self.rounds_executed = self.rounds = self.words_moved = self.max_words_seen = 0
        self.by_category = {}
        self.storage = [[] for _ in range(self.num_machines)]
        self.tables = {}

    def _table_loads(self, tables: dict[str, Table]) -> np.ndarray:
        loads = np.zeros(self.num_machines, dtype=np.int64)
        for t in tables.values():
            loads += t.loads(self.num_machines)
        return loads

    def _loads(self, tables: dict[str, Table]) -> np.ndarray:
        """Words per machine: ``tables`` plus the listed items."""
        loads = self._table_loads(tables)
        for mid, st in enumerate(self.storage):
            if st:
                loads[mid] += sum(word_size(x) for x in st)
        return loads

    def _observe_loads(self, loads: np.ndarray) -> None:
        """Observe every machine's load; the first one over ``S`` raises."""
        mid = _first(loads > self.space)
        if mid == loads.size:
            mid = int(np.argmax(loads))
        self.observe_load(mid, int(loads[mid]), "storing")

    # ------------------------------------------------------------------ #
    # Round execution: item-granular messages (distributed_prefix_sums)
    # ------------------------------------------------------------------ #

    def round(self, step: StepFn, category: str = "round") -> None:
        """Run one synchronous round with full capacity checking.

        Every machine's step executes on its pre-round storage; messages are
        delivered after all steps complete (appended to the receiver's kept
        items, visible next round).
        """
        t_round = _obs.clock() if _obs._TRACING else 0.0
        keeps: list[list[Any]] = []
        inboxes: list[list[Any]] = [[] for _ in range(self.num_machines)]
        total_sent = 0
        for mid in range(self.num_machines):
            keep, sends = step(mid, list(self.storage[mid]))
            sent_words = sum(word_size(msg) for _, msg in sends)
            if sent_words > self.space:
                raise CapacityExceededError(mid, sent_words, self.space, "sent")
            for dest, msg in sends:
                if not 0 <= dest < self.num_machines:
                    raise ValueError(f"message to nonexistent machine {dest}")
                inboxes[dest].append(msg)
            keeps.append(keep)
            total_sent += sent_words
        table_loads = self._table_loads(self.tables)
        for mid in range(self.num_machines):
            recv_words = sum(word_size(msg) for msg in inboxes[mid])
            if recv_words > self.space:
                raise CapacityExceededError(mid, recv_words, self.space, "received")
            new_store = keeps[mid] + inboxes[mid]
            words = sum(word_size(x) for x in new_store) + int(table_loads[mid])
            self.observe_load(mid, words, "storing")
            self.storage[mid] = new_store
        self.rounds_executed += 1
        self.charge(category, 1, words=total_sent)
        if _obs._TRACING:
            self._record_round_span(t_round, category, total_sent)

    def _record_round_span(
        self, t_round: float, category: str, total_sent: int
    ) -> None:
        """One completed ``engine.round`` span with word/space attributes."""
        _obs.record_span(
            "engine.round",
            t_round,
            {
                "round": self.rounds_executed,
                "category": category,
                "words_sent": total_sent,
                "space_high_water": self.max_words_seen,
                "machines": self.num_machines,
                "space_limit": self.space,
            },
        )

    # ------------------------------------------------------------------ #
    # Round execution: cluster tables (the round core)
    # ------------------------------------------------------------------ #

    def round_packed(self, step: PackedStepFn, category: str = "round") -> None:
        """One synchronous round as one array program over the cluster.

        ``step`` sees every resident table and returns the tables to keep
        and the blocks to send.  Model semantics are those of
        :meth:`round`:

        * rows a block addresses to their own machine (``src == dest``) are
          storage, not communication: they are kept and never charged;
        * every machine's sent words must fit in ``S`` and every
          destination must exist; then every machine's received words and
          its new storage must fit in ``S``.  Each ceiling is one
          ``bincount``, and the error names the lowest-numbered machine
          that breaks one, checked in the order sent, destination,
          received, storing -- the machine a machine-by-machine engine
          would stop at first;
        * delivery is a concatenation per tag: each machine holds its kept
          rows first (in the order the kept tables list them), then the rows
          it addressed to itself, then the rows it received, in the order
          each block lists them -- sender by sender for every step here.
          A machine's rows are read in table order, so no sort is needed
          to deliver.
        """
        t_round = _obs.clock() if _obs._TRACING else 0.0
        m = self.num_machines
        kept, blocks = step(self.tables)
        parts: dict[str, list[Table]] = {}
        for t in kept:
            parts.setdefault(t.tag, []).append(t)
        own_rows: list[Table] = []
        out: list[MessageBlock] = []
        for blk in blocks:
            if not blk.rows:
                continue
            own = blk.src == blk.dest
            if own.any():
                own_rows.append(Table(blk.tag, blk.src[own], blk.data[own]))
                if own.all():
                    continue
                blk = MessageBlock(
                    blk.tag, blk.src[~own], blk.dest[~own], blk.data[~own]
                )
            out.append(blk)

        sent = np.zeros(m, dtype=np.int64)
        bad: list[tuple[int, int]] = []  # (src, dest) rows to no machine
        for blk in out:
            sent += np.bincount(blk.src, minlength=m) * blk.words_per_row
            wrong = (blk.dest < 0) | (blk.dest >= m)
            bad.extend(zip(blk.src[wrong].tolist(), blk.dest[wrong].tolist()))
        culprit, dest = min(bad, default=(m, 0))
        over = _first(sent > self.space)
        if over < m and over <= culprit:
            raise CapacityExceededError(over, int(sent[over]), self.space, "sent")
        if culprit < m:
            raise ValueError(f"message to nonexistent machine {dest}")

        recv = np.zeros(m, dtype=np.int64)
        for t in own_rows:
            parts.setdefault(t.tag, []).append(t)
        for blk in out:
            recv += np.bincount(blk.dest, minlength=m) * blk.words_per_row
            parts.setdefault(blk.tag, []).append(Table(blk.tag, blk.dest, blk.data))
        tables = {tag: Table.concat(ps) for tag, ps in parts.items()}
        loads = self._loads(tables)
        over = _first(recv > self.space)
        if over < m and over <= _first(loads > self.space):
            raise CapacityExceededError(over, int(recv[over]), self.space, "received")
        self._observe_loads(loads)
        self.tables = tables
        total_sent = int(sent.sum())
        self.rounds_executed += 1
        self.charge(category, 1, words=total_sent)
        if _obs._TRACING:
            self._record_round_span(t_round, category, total_sent)

