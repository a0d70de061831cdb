"""A literal message-passing MPC engine (machines, rounds, capacity checks).

This is the faithful, executable version of the model of Section "The MPC
model": ``M`` machines with ``S`` words of local space compute in synchronous
rounds; between rounds each machine sends messages addressed to single
machines, and all messages sent and received by a machine in a round must fit
in ``S`` words.

The engine runs the Lemma-4 communication primitives (sorting, prefix
sums, broadcast -- see :mod:`repro.mpc.primitives`), the Section-3.1 degree
computation (:mod:`repro.mpc.distributed_graph`) and the ``mis/mpc-engine``
Luby run (:mod:`repro.mpc.distributed_luby`) with real message passing and
exact round counting.  The derandomized graph algorithms themselves run
against the vectorised accounting layer (:mod:`repro.mpc.context`) for
speed; both layers share the same model constants so the round/space
numbers agree.

:meth:`MPCEngine.round_packed` is the round core: a step maps
``(machine, items)`` to kept items plus
:class:`~repro.models.plane.MessageBlock` batches, and the engine routes
each batch with one stable argsort + ``searchsorted`` split, so interpreter
cost is per *batch*, not per message.  :meth:`MPCEngine.round` applies the
same model checks to item-granular ``(dest, item)`` messages; only the
prefix-sum demonstration (:func:`~repro.mpc.primitives.distributed_prefix_sums`)
still runs on it.

Storage granularity: each stored item costs ``word_size(item)`` words, where
scalars cost 1 and containers cost the recursive word count of their
contents.  The engine is a :class:`~repro.models.ledger.RoundLedger`: each
executed round charges one round and the words it sent, and every stored
machine load is observed against ``S``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..models.ledger import RoundLedger
from ..models.plane import MessageBlock, Plane, route_block
from ..obs import trace as _obs
from .exceptions import CapacityExceededError

__all__ = ["MPCEngine", "word_size"]


def word_size(item: Any) -> int:
    """Number of machine words an item occupies.

    Scalars cost 1; tuples/lists cost the *recursive* word count of their
    contents (a tuple is a record, and a record holding an array holds the
    array's words -- charging ``len(tuple)`` would let an algorithm smuggle
    arbitrarily large payloads inside 3-word messages).  A numpy array
    costs one word per element, and a :class:`~repro.models.plane.Plane`
    costs ``rows * (width + 1)``: each row is a ``(tag, *row)`` record, and
    the tag costs one word.
    """
    if isinstance(item, (tuple, list)):
        return sum(word_size(x) for x in item)
    if isinstance(item, Plane):
        return item.word_cost
    if isinstance(item, np.ndarray):
        return int(item.size)
    return 1


#: A step function maps (machine_id, local_items) to
#: (items_to_keep, [(dest_machine, item), ...]).
StepFn = Callable[[int, list[Any]], tuple[list[Any], list[tuple[int, Any]]]]

#: The packed variant maps (machine_id, local_items) to
#: (items_to_keep, [MessageBlock, ...]); rows destined to the sender are
#: kept locally (storage, never charged as communication).
PackedStepFn = Callable[[int, list[Any]], tuple[list[Any], list[MessageBlock]]]


@dataclass
class MPCEngine(RoundLedger):
    """``M`` machines of ``S`` words each, executing synchronous rounds."""

    model = "mpc-engine"

    num_machines: int
    space: int
    rounds_executed: int = 0
    storage: list[list[Any]] = field(default_factory=list)

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

        Loading new input starts a fresh computation: the round counter
        and the whole bill (rounds, words, space high-water mark) are
        reset, so an engine instance can be reused across demonstrations
        without stale accounting.
        """
        self._restart()
        data = list(items)
        per = -(-len(data) // self.num_machines) if data else 0
        for mid in range(self.num_machines):
            block = data[mid * per : (mid + 1) * per]
            self._check_store(mid, block)
            self.storage[mid] = block

    def load_balanced_packed(self, values: np.ndarray) -> None:
        """:meth:`load_balanced` for a packed scalar array: each machine
        receives one contiguous int64 slice instead of a list of boxed
        ints.  Word charges and the contiguous ``ceil(N / M)`` split are
        identical; interpreter cost is ``O(M)`` instead of ``O(N)``.
        """
        self._restart()
        data = np.asarray(values, dtype=np.int64)
        per = -(-data.size // self.num_machines) if data.size else 0
        for mid in range(self.num_machines):
            block = data[mid * per : (mid + 1) * per]
            self._check_store(mid, [block])
            self.storage[mid] = [block]

    def machine_load(self, mid: int) -> int:
        return sum(word_size(x) for x in self.storage[mid])

    def all_items(self) -> list[Any]:
        """Concatenation of all machines' storage, machine order."""
        out: list[Any] = []
        for st in self.storage:
            out.extend(st)
        return out

    def _restart(self) -> None:
        self.rounds_executed = self.rounds = self.words_moved = self.max_words_seen = 0
        self.by_category = {}

    def _check_store(self, mid: int, items: Sequence[Any]) -> None:
        self.observe_load(mid, sum(word_size(x) for x in items), "storing")

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
        for mid in range(self.num_machines):
            recv_words = sum(word_size(msg) for msg in inboxes[mid])
            if recv_words > self.space:
                raise CapacityExceededError(mid, recv_words, self.space, "received")
            new_store = keeps[mid] + inboxes[mid]
            self._check_store(mid, new_store)
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
    # Round execution: packed message blocks (the round core)
    # ------------------------------------------------------------------ #

    def round_packed(self, step: PackedStepFn, category: str = "round") -> None:
        """One synchronous round over packed message blocks.

        Model semantics are those of :meth:`round` -- same send / receive /
        storage ceilings, same destination validation, same delivery timing
        -- but a block's rows are counted, routed and delivered as arrays.
        Rows a machine addresses to itself are split off into kept
        :class:`~repro.models.plane.Plane`s before routing: they are
        storage, not communication, so they are never charged as sent or
        received words.
        """
        t_round = _obs.clock() if _obs._TRACING else 0.0
        m = self.num_machines
        keeps: list[list[Any]] = []
        inboxes: list[list[Any]] = [[] for _ in range(m)]
        total_sent = 0
        for mid in range(m):
            keep, blocks = step(mid, list(self.storage[mid]))
            sent_words = 0
            outgoing: list[MessageBlock] = []
            for blk in blocks:
                if blk.rows == 0:
                    continue
                self_rows = blk.dest == mid
                if self_rows.any():
                    kept = blk.data[self_rows]
                    keep.append(
                        kept[:, 0] if blk.tag == "" else Plane(blk.tag, kept)
                    )
                    if not self_rows.all():
                        ext = ~self_rows
                        blk = MessageBlock(blk.tag, blk.dest[ext], blk.data[ext])
                    else:
                        continue
                sent_words += blk.rows * blk.words_per_row
                outgoing.append(blk)
            if sent_words > self.space:
                raise CapacityExceededError(mid, sent_words, self.space, "sent")
            for blk in outgoing:
                for dest, plane in route_block(blk, m):
                    inboxes[dest].append(
                        plane.data[:, 0] if blk.tag == "" else plane
                    )
            keeps.append(keep)
            total_sent += sent_words
        for mid in range(m):
            recv_words = sum(word_size(p) for p in inboxes[mid])
            if recv_words > self.space:
                raise CapacityExceededError(mid, recv_words, self.space, "received")
            new_store = keeps[mid] + inboxes[mid]
            self._check_store(mid, new_store)
            self.storage[mid] = new_store
        self.rounds_executed += 1
        self.charge(category, 1, words=total_sent)
        if _obs._TRACING:
            self._record_round_span(t_round, category, total_sent)
