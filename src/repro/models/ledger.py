"""The one round ledger the three cost models bill against.

The paper states each algorithm once and charges it against three machine
models — low-space MPC, CONGESTED CLIQUE and CONGEST.  Every simulator
extends the concrete :class:`RoundLedger` below and adds only its own
model's rules; the ledger owns what is common to all of them:

* ``rounds`` — total rounds charged so far, and ``by_category`` — the same
  rounds tagged by what was charged;
* ``words_moved`` — total communication volume in ``O(log n)``-bit words
  (message count × message width for the literal engine; the model's
  per-primitive message count for the accounting contexts);
* ``max_words_seen`` — the storage high-water mark, checked against the
  model's ``space_ceiling`` by :meth:`RoundLedger.observe_load`;
* ``charge(category, rounds, words=...)`` — the one way to bill, which
  under tracing also lands as a ``charge`` span event, and ``fold(sub)``,
  which adds a finished sub-run's bill without charging it a second time;
* ``model_snapshot()`` — a frozen, JSON-able :class:`ModelSnapshot` that
  a solve's envelope carries and
  :func:`repro.analysis.report.cross_model_report` renders side by side.

Subclasses: :class:`repro.mpc.engine.MPCEngine` (literal message
passing), :class:`repro.mpc.context.MPCContext` (vectorised accounting),
:class:`repro.cclique.model.CongestedCliqueContext` and
:class:`repro.congest.model.CongestContext`.  Each names its ``model``,
its ``space_ceiling`` / ``bandwidth_ceiling`` (``None`` where the model
leaves the axis unbounded) and the ``snapshot_detail()`` it reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from ..obs import trace as _obs

__all__ = [
    "CapacityExceededError",
    "MPCModelError",
    "ModelSnapshot",
    "RoundLedger",
    "SpaceExceededError",
]


class MPCModelError(RuntimeError):
    """Base class: a simulated algorithm violated a model constraint."""


class SpaceExceededError(MPCModelError):
    """A machine was asked to hold more than ``S`` words."""

    def __init__(self, machine: int, words: int, limit: int, what: str = "") -> None:
        self.machine = machine
        self.words = words
        self.limit = limit
        suffix = f" while {what}" if what else ""
        super().__init__(
            f"machine {machine} holds {words} words > S = {limit}{suffix}"
        )


class CapacityExceededError(MPCModelError):
    """A machine sent or received more than ``S`` words in one round."""

    def __init__(self, machine: int, words: int, limit: int, direction: str) -> None:
        self.machine = machine
        self.words = words
        self.limit = limit
        super().__init__(
            f"machine {machine} {direction} {words} words > per-round cap S = {limit}"
        )


@dataclass(frozen=True)
class ModelSnapshot:
    """One model's round/communication bill, in a model-agnostic shape."""

    model: str  # "mpc" | "mpc-engine" | "congested-clique" | "congest"
    rounds: int
    words_moved: int
    by_category: dict[str, int] = field(default_factory=dict)
    space_ceiling: int | None = None
    bandwidth_ceiling: int | None = None
    max_words_seen: int = 0
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "rounds": self.rounds,
            "words_moved": self.words_moved,
            "by_category": dict(self.by_category),
            "space_ceiling": self.space_ceiling,
            "bandwidth_ceiling": self.bandwidth_ceiling,
            "max_words_seen": self.max_words_seen,
            "detail": dict(self.detail),
        }

    def symbol_row(self) -> dict:
        """Symbol values this bill pins down, keyed by the shared
        vocabulary of :mod:`repro.analysis.symbolic` (``machines``, ``space``,
        ``seed_bits``, ``gamma``, ``depth``).  Only axes the model
        actually fixed are reported — the symbolic checker treats absent
        symbols as unmeasurable rather than guessing.
        """
        out: dict = {}
        if self.detail.get("num_machines"):
            out["machines"] = int(self.detail["num_machines"])
        if self.space_ceiling is not None:
            out["space"] = int(self.space_ceiling)
        if self.detail.get("seed_bits"):
            out["seed_bits"] = int(self.detail["seed_bits"])
        if self.detail.get("eps") is not None:
            out["gamma"] = float(self.detail["eps"])
        if self.detail.get("bfs_depth"):
            out["depth"] = int(self.detail["bfs_depth"])
        return out

    @staticmethod
    def from_dict(d: dict) -> "ModelSnapshot":
        return ModelSnapshot(
            model=d["model"],
            rounds=int(d["rounds"]),
            words_moved=int(d["words_moved"]),
            by_category={k: int(v) for k, v in d.get("by_category", {}).items()},
            space_ceiling=d.get("space_ceiling"),
            bandwidth_ceiling=d.get("bandwidth_ceiling"),
            max_words_seen=int(d.get("max_words_seen", 0)),
            detail=dict(d.get("detail", {})),
        )


@dataclass
class RoundLedger:
    """Rounds, words moved and the storage high-water mark of one run.

    None of the fields is a constructor argument: a subclass's dataclass
    ``__init__`` takes only its model's parameters, and the bill starts
    at zero.
    """

    #: The :attr:`ModelSnapshot.model` label of the subclass.
    model: ClassVar[str] = ""

    rounds: int = field(init=False, default=0)
    words_moved: int = field(init=False, default=0)
    max_words_seen: int = field(init=False, default=0)
    by_category: dict[str, int] = field(init=False, default_factory=dict)

    @property
    def space_ceiling(self) -> int | None:
        """Words one machine / node may store; ``None`` = unbounded."""
        return None

    @property
    def bandwidth_ceiling(self) -> int | None:
        """The model's per-round communication cap; ``None`` = unbounded."""
        return None

    def charge(self, category: str, rounds: int = 1, *, words: int = 0) -> None:
        """Bill ``rounds`` rounds and ``words`` words under ``category``."""
        if rounds < 0:
            raise ValueError("cannot charge negative rounds")
        if words < 0:
            raise ValueError("cannot charge negative words")
        self.rounds += rounds
        self.by_category[category] = self.by_category.get(category, 0) + rounds
        self.words_moved += words
        if _obs._TRACING:
            _obs.ledger_event(category, rounds, words)

    def fold(self, sub: RoundLedger) -> None:
        """Add a finished sub-run's bill to this one.

        Emits no ``charge`` events: the sub-run emitted its own as it
        charged, so the trace already holds them once.
        """
        for category, rounds in sub.by_category.items():
            self.by_category[category] = self.by_category.get(category, 0) + rounds
        self.rounds += sub.rounds
        self.words_moved += sub.words_moved
        self.max_words_seen = max(self.max_words_seen, sub.max_words_seen)

    def observe_load(self, where: int, words: int, what: str = "") -> None:
        """Record machine (or node) ``where`` holding ``words`` words; raise
        :class:`SpaceExceededError` past the
        ``space_ceiling``."""
        words = int(words)
        limit = self.space_ceiling
        if limit is not None and words > limit:
            raise SpaceExceededError(where, words, limit, what)
        self.max_words_seen = max(self.max_words_seen, words)

    def snapshot_detail(self) -> dict:
        """Model-specific facts :meth:`model_snapshot` reports as ``detail``."""
        return {}

    def model_snapshot(self) -> ModelSnapshot:
        return ModelSnapshot(
            model=self.model,
            rounds=self.rounds,
            words_moved=self.words_moved,
            by_category=dict(self.by_category),
            space_ceiling=self.space_ceiling,
            bandwidth_ceiling=self.bandwidth_ceiling,
            max_words_seen=self.max_words_seen,
            detail=self.snapshot_detail(),
        )
