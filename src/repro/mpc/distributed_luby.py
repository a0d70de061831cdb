"""A complete Luby MIS run executed on the literal MPC engine.

Everything the accounting layer charges for is *performed* here with real
machine-to-machine messages on :class:`~repro.mpc.engine.MPCEngine` -- no
central shortcuts.  One phase:

1. the phase seed is broadcast (machines evaluate the pairwise hash locally,
   so z-values need no communication -- the small-seed point of the paper);
2. every arc holder sends ``min z(dst)`` partials per source node to the
   node's *home machine* ``node % M`` (1 round);
3. home machines decide ``v in I``  iff  ``z(v) < min over neighbours``;
4. arc holders query the ``in I`` bit of each endpoint they reference
   (request + response: 2 rounds), then report "has a chosen neighbour"
   partials back to home machines (1 round);
5. home machines finalise ``killed(v) = in I or dominated``; arc holders
   query the killed bits (2 rounds) and locally drop dead arcs.

~7 engine rounds per phase, independent of the graph size -- the O(1)
rounds-per-iteration claim, executed.  Phases repeat until no arcs remain;
isolated/undecided nodes join the MIS at the end.

Each machine sends at most one query per distinct endpoint it stores, so
message counts do not grow with ``Delta``; the space every round needs is
sized exactly, before round 1, by
:func:`~repro.api.solvers.engine_space_plan`, and enforced by the engine's
capacity checks.

Every step is one array program over the whole cluster
(:meth:`~repro.mpc.engine.MPCEngine.round_packed`): it reads the resident
tables, whose rows carry their machine's id, and works on
``(machine, node)`` keys ``machine * n + node`` with the sort-based helpers
of :mod:`repro.models.plane`, so a machine only ever combines rows it holds.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..graphs.io import packed_arc_plane
from ..hashing.kwise import KWiseHashFamily, make_family
from ..models.plane import (
    MessageBlock,
    Table,
    balanced_owners,
    distinct,
    last_wins,
    lookup,
    member,
    reduce_by_key,
    table,
)
from .engine import MPCEngine
from .primitives import broadcast_word

__all__ = ["distributed_luby_mis", "luby_peak_words", "packed_arc_plane"]

Tables = dict[str, Table]


def distributed_luby_mis(
    g: Graph,
    num_machines: int,
    space: int,
    *,
    max_phases: int = 200,
    stats_out: dict | None = None,
) -> tuple[np.ndarray, int, int]:
    """Run Luby MIS end-to-end on the engine.

    Phase seeds are drawn deterministically (seed of phase ``t`` is
    ``1 + t * 7919 mod |H|`` -- any fixed schedule works; local minima exist
    for every hash, so progress never stalls).  Returns
    ``(mis_node_ids, total_engine_rounds, phases)``.

    The engine loads its arcs from :func:`~repro.graphs.io.packed_arc_plane`
    of ``g``.  When ``stats_out`` is a dict, the engine's
    :class:`~repro.models.ledger.ModelSnapshot` is stored under
    ``stats_out["snapshot"]`` after the run (the return tuple stays stable
    for existing callers).
    """
    engine = MPCEngine(num_machines=num_machines, space=space)
    engine.load_balanced_packed(packed_arc_plane(g))
    n = max(g.n, 1)
    run = _LubyRun(n, engine.num_machines, make_family(universe=n, k=2))
    in_mis = np.zeros(g.n, dtype=bool)
    decided = np.zeros(g.n, dtype=bool)
    rounds0 = engine.rounds_executed
    phases = 0
    while engine.tables[""].rows:
        phases += 1
        if phases > max_phases:
            raise RuntimeError("distributed Luby failed to converge")
        run.seed = (1 + phases * 7919) % run.family.size
        broadcast_word(engine, run.seed)
        for step in run.steps:
            engine.round_packed(step)

        # Harvest decisions (observation only; no engine communication).
        ii = engine.tables["inI"].data
        chosen = ii[ii[:, 1] != 0, 0]
        in_mis[chosen] = decided[chosen] = True
        kk = engine.tables["killed"].data
        decided[kk[kk[:, 1] != 0, 0]] = True

    # Undecided nodes are isolated in the residual graph: they join the MIS.
    in_mis |= ~decided
    total_rounds = engine.rounds_executed - rounds0
    if stats_out is not None:
        stats_out["snapshot"] = engine.model_snapshot()
    return np.nonzero(in_mis)[0].astype(np.int64), total_rounds, phases


def luby_peak_words(g: Graph, num_machines: int) -> int:
    """``max_h (A_h + 3 E_h + 3 Q_h + 9 N_h + 2)``: words that bound every
    machine's storage, send and receive load in every round of
    :func:`distributed_luby_mis` on ``num_machines`` machines.  The terms
    are spelled out in :func:`~repro.api.solvers.engine_space_plan`."""
    n, m = max(g.n, 1), num_machines
    holder = balanced_owners(2 * g.m, m)
    src, dst = np.divmod(packed_arc_plane(g), n)
    ends = distinct(np.concatenate([holder * n + src, holder * n + dst]))
    nodes = np.flatnonzero(g.degrees())
    peak = (
        np.bincount(holder, minlength=m)
        + 3 * np.bincount(ends // n, minlength=m)
        + 3 * np.bincount(ends % n % m, minlength=m)
        + 9 * np.bincount(nodes % m, minlength=m)
        + 2
    )
    return int(peak.max())


class _LubyRun:
    """The nine per-phase steps, each a function of the cluster's tables.

    Tags: ``""`` arcs ``src * n + dst`` (raw), ``bcast`` the phase seed,
    ``minz`` / ``dom`` partials at homes, ``inI`` / ``killed`` home
    decisions, ``q`` / ``kq`` endpoint queries at homes and ``a`` / ``ka``
    their answers at the holders.
    """

    def __init__(self, n: int, machines: int, family: KWiseHashFamily) -> None:
        self.n = n
        self.m = machines
        self.family = family
        self.seed = 0
        self.steps = (
            self.minz,
            self.decide,
            lambda tables: self.ask(tables, "q"),
            self.answer,
            self.dominated,
            self.finalize,
            lambda tables: self.ask(tables, "kq"),
            self.kill_answer,
            self.filter,
        )

    # -- local helpers --------------------------------------------------- #

    def _z(self, nodes: np.ndarray) -> np.ndarray:
        """Total-order z-keys ``z(v) * (n + 1) + v`` for a node id array."""
        z = self.family.evaluate(self.seed, nodes)
        return z.astype(np.uint64) * np.uint64(self.n + 1) + nodes.astype(np.uint64)

    def _split(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.divmod(keys, self.n)

    def _arc_keys(self, arcs: Table) -> tuple[np.ndarray, np.ndarray]:
        """``(machine, src)`` and ``(machine, dst)`` keys of every arc."""
        src, dst = self._split(arcs.col(0))
        base = arcs.machine * self.n
        return base + src, base + dst

    def _bits(self, rows: Table) -> np.ndarray:
        """Sorted distinct keys of the rows whose bit column is set."""
        hot = rows.col(1) != 0
        return distinct(rows.machine[hot] * self.n + rows.col(0)[hot])

    @staticmethod
    def _except(tables: Tables, *drop: str) -> list[Table]:
        return [t for tag, t in tables.items() if tag not in drop]

    @staticmethod
    def _pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.stack([a, b.astype(np.int64, copy=False)], axis=1)

    # -- the steps ------------------------------------------------------- #

    def minz(self, tables: Tables):
        """Holders send ``min z(dst)`` per ``(holder, src)`` to ``src``'s home."""
        arcs = tables[""]
        src_keys, dst_keys = self._arc_keys(arcs)
        z = self._z(dst_keys % self.n)
        keys, zmin = reduce_by_key(np.minimum, src_keys, z)
        holder, src = self._split(keys)
        block = MessageBlock("minz", holder, src % self.m, self._pairs(src, zmin))
        return tables.values(), [block]

    def decide(self, tables: Tables):
        """Homes decide ``v in I``; the new rows follow any stale ones."""
        mz = table(tables, "minz", 2)
        keys, zmin = reduce_by_key(np.minimum, mz.keys(self.n), mz.col(1))
        home, v = self._split(keys)
        bits = self._z(v) < zmin.astype(np.uint64)
        fresh = Table("inI", home, self._pairs(v, bits))
        return self._except(tables, "minz") + [fresh], []

    def ask(self, tables: Tables, tag: str):
        """Holders query each distinct endpoint's home (``q`` / ``kq``)."""
        holder, w = self._split(distinct(np.concatenate(self._arc_keys(tables[""]))))
        block = MessageBlock(tag, holder, w % self.m, self._pairs(w, holder))
        return tables.values(), [block]

    def _reply(self, tables: Tables, query: str, source: str, tag: str):
        """Homes answer each ``query`` row with its bit in ``source``."""
        q, t = table(tables, query, 2), table(tables, source, 2)
        bits = lookup(*last_wins(t.keys(self.n), t.col(1)), q.keys(self.n))
        return MessageBlock(tag, q.machine, q.col(1), self._pairs(q.col(0), bits))

    def answer(self, tables: Tables):
        return self._except(tables, "q"), [self._reply(tables, "q", "inI", "a")]

    def dominated(self, tables: Tables):
        """Holders report sources with a chosen neighbour to their homes."""
        arcs = tables[""]
        src_keys, dst_keys = self._arc_keys(arcs)
        chosen = self._bits(table(tables, "a", 2))
        holder, v = self._split(distinct(src_keys[member(dst_keys, chosen)]))
        block = MessageBlock("dom", holder, v % self.m, self._pairs(v, np.ones_like(v)))
        return tables.values(), [block]

    def finalize(self, tables: Tables):
        """Homes settle ``inI`` (last wins) and ``killed``; the broadcast
        token, the ``dom`` partials and the stale tables end here."""
        ii = table(tables, "inI", 2)
        keys, bits = last_wins(ii.keys(self.n), ii.col(1))
        dom = distinct(table(tables, "dom", 2).keys(self.n))
        killed = (bits != 0) | member(keys, dom)
        home, v = self._split(keys)
        kept = [
            tables[""],
            table(tables, "a", 2),
            Table("inI", home, self._pairs(v, bits)),
            Table("killed", home, self._pairs(v, killed)),
        ]
        return kept, []

    def kill_answer(self, tables: Tables):
        kept = [tables[""], table(tables, "killed", 2), table(tables, "inI", 2)]
        return kept, [self._reply(tables, "kq", "killed", "ka")]

    def filter(self, tables: Tables):
        """Holders drop every arc with a killed endpoint."""
        arcs = tables[""]
        dead = self._bits(table(tables, "ka", 2))
        src_keys, dst_keys = self._arc_keys(arcs)
        alive = ~(member(src_keys, dead) | member(dst_keys, dead))
        return [arcs.take(alive)] + self._except(tables, "", "ka"), []
