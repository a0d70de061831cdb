"""Per-machine reference for the engine's round core and its Luby run.

This is the round core the engine ran before it became one array program
per round: every machine's step runs on its own item list, each message
batch is a :class:`Plane` routed per destination machine, and storage is
charged item by item with :func:`word_size`.  It applies the model rules
one machine at a time -- send ceiling, destination check, then receive and
storage ceilings -- so the first machine (in id order) to break a rule is
the one that raises.

:func:`distributed_luby_oracle` runs the same Luby protocol as
:func:`repro.mpc.distributed_luby.distributed_luby_mis` on it, with the
root's broadcast token put through the storage check.  The equivalence
tests compare MIS, rounds, phases, ``words_moved`` and ``max_words_seen``
(or the exception type, machine and word count) between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.io import packed_arc_plane
from repro.hashing.kwise import KWiseHashFamily, make_family
from repro.models.ledger import CapacityExceededError, RoundLedger


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.int64)
    return arr[:, None] if arr.ndim == 1 else arr


class Plane:
    """A tagged ``(rows, width)`` batch in one machine's storage; each row
    is the record ``(tag, *row)`` and costs ``width + 1`` words."""

    __slots__ = ("tag", "data")

    def __init__(self, tag: str, data) -> None:
        self.tag = tag
        self.data = _as_matrix(data)

    @property
    def word_cost(self) -> int:
        return self.data.shape[0] * (self.data.shape[1] + 1)


class Block:
    """One machine's batch of same-tag messages: row ``i`` goes to ``dest[i]``.
    Tag ``""`` marks raw single-column scalars (one word per row)."""

    __slots__ = ("tag", "dest", "data")

    def __init__(self, tag: str, dest, data) -> None:
        self.tag = tag
        self.dest = np.asarray(dest, dtype=np.int64)
        self.data = _as_matrix(data)

    @property
    def rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def words_per_row(self) -> int:
        return self.data.shape[1] + (1 if self.tag else 0)


def word_size(item: Any) -> int:
    if isinstance(item, (tuple, list)):
        return sum(word_size(x) for x in item)
    if isinstance(item, Plane):
        return item.word_cost
    if isinstance(item, np.ndarray):
        return int(item.size)
    return 1


def route_block(block: Block, num_machines: int) -> list[tuple[int, Plane]]:
    dest = block.dest
    if dest.size == 0:
        return []
    lo, hi = int(dest.min()), int(dest.max())
    if lo < 0 or hi >= num_machines:
        raise ValueError(f"message to nonexistent machine {lo if lo < 0 else hi}")
    order = np.argsort(dest, kind="stable")
    sorted_dest = dest[order]
    receivers = np.unique(sorted_dest)
    starts = np.searchsorted(sorted_dest, receivers, side="left")
    ends = np.searchsorted(sorted_dest, receivers, side="right")
    return [
        (int(mid), Plane(block.tag, block.data[order[a:b]]))
        for mid, a, b in zip(receivers, starts, ends)
    ]


def concat_planes(items: list, tag: str, width: int) -> np.ndarray:
    parts = [it.data for it in items if isinstance(it, Plane) and it.tag == tag]
    if not parts:
        return np.empty((0, width), dtype=np.int64)
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


@dataclass
class OracleEngine(RoundLedger):
    """``M`` machines of ``S`` words, one step call per machine per round."""

    model = "mpc-engine"

    num_machines: int
    space: int
    rounds_executed: int = 0
    storage: list[list[Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.storage = [[] for _ in range(self.num_machines)]

    @property
    def space_ceiling(self) -> int:
        return self.space

    def load_balanced_packed(self, values: np.ndarray) -> None:
        data = np.asarray(values, dtype=np.int64)
        per = -(-data.size // self.num_machines) if data.size else 0
        for mid in range(self.num_machines):
            block = data[mid * per : (mid + 1) * per]
            self.observe_load(mid, block.size, "storing")
            self.storage[mid] = [block]

    def store(self, mid: int, item: Any) -> None:
        self.storage[mid].append(item)
        self.observe_load(
            mid, sum(word_size(x) for x in self.storage[mid]), "storing"
        )

    def round_packed(self, step) -> None:
        m = self.num_machines
        keeps: list[list[Any]] = []
        inboxes: list[list[Any]] = [[] for _ in range(m)]
        total_sent = 0
        for mid in range(m):
            keep, blocks = step(mid, list(self.storage[mid]))
            sent_words = 0
            outgoing: list[Block] = []
            for blk in blocks:
                if blk.rows == 0:
                    continue
                own = blk.dest == mid
                if own.any():
                    kept = blk.data[own]
                    keep.append(kept[:, 0] if blk.tag == "" else Plane(blk.tag, kept))
                    if own.all():
                        continue
                    blk = Block(blk.tag, blk.dest[~own], blk.data[~own])
                sent_words += blk.rows * blk.words_per_row
                outgoing.append(blk)
            if sent_words > self.space:
                raise CapacityExceededError(mid, sent_words, self.space, "sent")
            for blk in outgoing:
                for dest, plane in route_block(blk, m):
                    inboxes[dest].append(plane.data[:, 0] if blk.tag == "" else plane)
            keeps.append(keep)
            total_sent += sent_words
        for mid in range(m):
            recv_words = sum(word_size(p) for p in inboxes[mid])
            if recv_words > self.space:
                raise CapacityExceededError(mid, recv_words, self.space, "received")
            new_store = keeps[mid] + inboxes[mid]
            self.observe_load(mid, sum(word_size(x) for x in new_store), "storing")
            self.storage[mid] = new_store
        self.rounds_executed += 1
        self.charge("round", 1, words=total_sent)


def broadcast_word_oracle(engine: OracleEngine, value: int, root: int = 0) -> int:
    m = engine.num_machines
    fanout = max(2, engine.space // 2)
    holders = {root}
    engine.store(root, Plane("bcast", [[value]]))
    rounds0 = engine.rounds_executed
    while len(holders) < m:
        frontier = sorted(holders)
        pending = [mid for mid in range(m) if mid not in holders]
        targets = {h: pending[i * fanout : (i + 1) * fanout] for i, h in enumerate(frontier)}

        def step(mid: int, items: list[Any]):
            dests = targets.get(mid)
            if not dests:
                return items, []
            token = concat_planes(items, "bcast", 1)[-1:]
            return items, [Block("bcast", dests, np.repeat(token, len(dests), axis=0))]

        engine.round_packed(step)
        for h in frontier:
            holders.update(targets[h])
    return engine.rounds_executed - rounds0


def distributed_luby_oracle(
    g: Graph, num_machines: int, space: int, *, max_phases: int = 200
):
    """``(mis, rounds, phases, engine)`` of the per-machine Luby run."""
    engine = OracleEngine(num_machines=num_machines, space=space)
    n = max(g.n, 1)
    engine.load_balanced_packed(packed_arc_plane(g))
    family: KWiseHashFamily = make_family(universe=n, k=2)
    mm = engine.num_machines
    in_mis = np.zeros(g.n, dtype=bool)
    decided = np.zeros(g.n, dtype=bool)
    phases = 0

    def planes_except(items, *drop):
        return [it for it in items if isinstance(it, Plane) and it.tag not in drop]

    def ask(items, tag, mid):
        arcs = _machine_arcs(items)
        blocks = []
        if arcs.size:
            src, dst = np.divmod(arcs, n)
            wanted = np.unique(np.concatenate([src, dst]))
            blocks.append(
                Block(tag, wanted % mm, _pairs(wanted, np.full(wanted.size, mid)))
            )
        return [arcs] + planes_except(items), blocks

    while any(
        it.size for st in engine.storage for it in st if isinstance(it, np.ndarray)
    ):
        phases += 1
        if phases > max_phases:
            raise RuntimeError("distributed Luby failed to converge")
        seed = (1 + phases * 7919) % family.size
        broadcast_word_oracle(engine, seed)

        def minz_step(mid, items):
            arcs = _machine_arcs(items)
            blocks = []
            if arcs.size:
                src, dst = np.divmod(arcs, n)
                srcs, zmins = _group_minima(src, _keyed_z(family, seed, dst, n))
                blocks.append(Block("minz", srcs % mm, _pairs(srcs, zmins)))
            return [arcs] + planes_except(items), blocks

        def decide_step(mid, items):
            keep = [_machine_arcs(items)] + planes_except(items, "minz")
            mz = concat_planes(items, "minz", 2)
            if mz.shape[0]:
                vs, zmin = _group_minima(mz[:, 0], mz[:, 1])
                bits = _keyed_z(family, seed, vs, n) < zmin.astype(np.uint64)
                keep.append(Plane("inI", _pairs(vs, bits)))
            return keep, []

        def answer_step(mid, items):
            keep = [_machine_arcs(items)] + planes_except(items, "q")
            q = concat_planes(items, "q", 2)
            blocks = []
            if q.shape[0]:
                bits = _lookup_bits(concat_planes(items, "inI", 2), q[:, 0])
                blocks.append(Block("a", q[:, 1], _pairs(q[:, 0], bits)))
            return keep, blocks

        def dominated_step(mid, items):
            arcs = _machine_arcs(items)
            answers = concat_planes(items, "a", 2)
            keep = [arcs] + planes_except(items, "a", "minz") + [Plane("a", answers)]
            blocks = []
            if arcs.size and answers.shape[0]:
                src, dst = np.divmod(arcs, n)
                chosen = answers[answers[:, 1] != 0, 0]
                dom = np.unique(src[np.isin(dst, chosen)])
                if dom.size:
                    blocks.append(Block("dom", dom % mm, _pairs(dom, np.ones(dom.size))))
            return keep, blocks

        def finalize_step(mid, items):
            keep: list[Any] = [_machine_arcs(items)]
            ii = concat_planes(items, "inI", 2)
            keep.append(Plane("a", concat_planes(items, "a", 2)))
            if ii.shape[0]:
                vs, bits = _last_wins(ii[:, 0], ii[:, 1])
                dom_vs = np.unique(concat_planes(items, "dom", 2)[:, 0])
                killed = (bits != 0) | np.isin(vs, dom_vs)
                keep.append(Plane("inI", _pairs(vs, bits)))
                keep.append(Plane("killed", _pairs(vs, killed)))
            return keep, []

        def kill_answer_step(mid, items):
            keep = [_machine_arcs(items)] + [
                it for it in items if isinstance(it, Plane) and it.tag in ("killed", "inI")
            ]
            kq = concat_planes(items, "kq", 2)
            blocks = []
            if kq.shape[0]:
                bits = _lookup_bits(concat_planes(items, "killed", 2), kq[:, 0])
                blocks.append(Block("ka", kq[:, 1], _pairs(kq[:, 0], bits)))
            return keep, blocks

        def filter_step(mid, items):
            arcs = _machine_arcs(items)
            keep = planes_except(items, "ka")
            if arcs.size:
                ka = concat_planes(items, "ka", 2)
                dead = ka[ka[:, 1] != 0, 0]
                src, dst = np.divmod(arcs, n)
                arcs = arcs[~(np.isin(src, dead) | np.isin(dst, dead))]
            return [arcs] + keep, []

        engine.round_packed(minz_step)
        engine.round_packed(decide_step)
        engine.round_packed(lambda mid, items: ask(items, "q", mid))
        engine.round_packed(answer_step)
        engine.round_packed(dominated_step)
        engine.round_packed(finalize_step)
        engine.round_packed(lambda mid, items: ask(items, "kq", mid))
        engine.round_packed(kill_answer_step)
        engine.round_packed(filter_step)

        for mid in range(mm):
            ii = concat_planes(engine.storage[mid], "inI", 2)
            chosen = ii[ii[:, 1] != 0, 0]
            in_mis[chosen] = True
            decided[chosen] = True
            kk = concat_planes(engine.storage[mid], "killed", 2)
            decided[kk[kk[:, 1] != 0, 0]] = True

    in_mis |= ~decided
    return np.nonzero(in_mis)[0].astype(np.int64), engine.rounds_executed, phases, engine


def _last_wins(keys, vals):
    uk, idx = np.unique(keys[::-1], return_index=True)
    return uk, vals[::-1][idx]


def _lookup_bits(table, queries):
    if table.shape[0] == 0:
        return np.zeros(queries.shape[0], dtype=np.int64)
    uk, uv = _last_wins(table[:, 0], table[:, 1])
    pos = np.minimum(np.searchsorted(uk, queries), uk.size - 1)
    return np.where(uk[pos] == queries, uv[pos], 0)


def _pairs(a, b):
    return np.stack([np.asarray(a).astype(np.int64), np.asarray(b).astype(np.int64)], axis=1)


def _machine_arcs(items):
    for it in items:
        if isinstance(it, np.ndarray):
            return it
    return np.empty(0, dtype=np.int64)


def _keyed_z(family, seed, nodes, n):
    z = family.evaluate(seed, nodes.astype(np.int64))
    return z.astype(np.uint64) * np.uint64(n + 1) + nodes.astype(np.uint64)


def _group_minima(src, vals):
    order = np.argsort(src, kind="stable")
    s, v = src[order], vals[order]
    starts = np.nonzero(np.concatenate([[True], s[1:] != s[:-1]]))[0]
    return s[starts], np.minimum.reduceat(v, starts)
