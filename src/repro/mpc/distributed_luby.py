"""A complete Luby MIS run executed on the literal MPC engine.

Everything the accounting layer charges for is *performed* here with real
machine-to-machine messages on :class:`~repro.mpc.engine.MPCEngine` -- no
central shortcuts.  One phase:

1. the phase seed is broadcast (machines evaluate the pairwise hash locally,
   so z-values need no communication -- the small-seed point of the paper);
2. every arc holder sends ``min z(dst)`` partials per source node to the
   node's *home machine* (1 round);
3. home machines decide ``v in I``  iff  ``z(v) < min over neighbours``;
4. arc holders query the ``in I`` bit of each endpoint they reference
   (request + response: 2 rounds), then report "has a chosen neighbour"
   partials back to home machines (1 round);
5. home machines finalise ``killed(v) = in I or dominated``; arc holders
   query the killed bits (2 rounds) and locally drop dead arcs.

~7 engine rounds per phase, independent of the graph size -- the O(1)
rounds-per-iteration claim, executed.  Phases repeat until no arcs remain;
isolated/undecided nodes join the MIS at the end.

Demonstration-scale constraints (documented, enforced by the engine's
capacity checks): the request/response pattern needs roughly
``n / M + M <= S`` and ``Delta``-independent message counts hold because
each machine sends at most one query per distinct endpoint it stores.

Every step runs through :meth:`~repro.mpc.engine.MPCEngine.round_packed`:
per-machine state and every message batch are struct-of-arrays planes,
routed with one stable argsort + ``searchsorted`` split per batch, so
interpreter cost per round is per *batch*, not per message.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..graphs.graph import Graph
from ..graphs.io import packed_arc_plane
from ..hashing.kwise import KWiseHashFamily, make_family
from ..models.plane import MessageBlock, Plane, concat_planes
from .engine import MPCEngine
from .primitives import broadcast_word

__all__ = ["distributed_luby_mis", "packed_arc_plane"]


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
    n = max(g.n, 1)
    # Contiguous per-machine arc slices (identical word count to loading
    # the scalars item-by-item; local representation, no round charge).
    engine.load_balanced_packed(packed_arc_plane(g))

    family: KWiseHashFamily = make_family(universe=n, k=2)
    m_machines = engine.num_machines
    in_mis = np.zeros(g.n, dtype=bool)
    decided = np.zeros(g.n, dtype=bool)
    rounds0 = engine.rounds_executed
    phases = 0

    def planes_except(items: list[Any], *drop: str) -> list[Plane]:
        return [
            it for it in items if isinstance(it, Plane) and it.tag not in drop
        ]

    def has_arcs() -> bool:
        return any(
            bool(it.size)
            for st in engine.storage
            for it in st
            if isinstance(it, np.ndarray)
        )

    while has_arcs():
        phases += 1
        if phases > max_phases:
            raise RuntimeError("distributed Luby failed to converge")
        seed = (1 + phases * 7919) % family.size
        broadcast_word(engine, seed)

        # ---- step 2: min-z partials to home machines ------------------ #
        def minz_step(mid: int, items: list[Any]):
            arcs = _machine_arcs(items)
            keep = [arcs] + planes_except(items)
            blocks = []
            if arcs.size:
                src, dst = np.divmod(arcs, n)
                srcs, zmins = _group_minima(src, _keyed_z(family, seed, dst, n))
                blocks.append(
                    MessageBlock("minz", srcs % m_machines, _pairs(srcs, zmins))
                )
            return keep, blocks

        engine.round_packed(minz_step)

        # ---- step 3: home machines decide membership in I ------------- #
        def decide_step(mid: int, items: list[Any]):
            keep = [_machine_arcs(items)] + planes_except(items, "minz")
            mz = concat_planes(items, "minz", 2)
            if mz.shape[0]:
                vs, zmin = _group_minima(mz[:, 0], mz[:, 1])
                bits = _keyed_z(family, seed, vs, n) < zmin.astype(np.uint64)
                keep.append(Plane("inI", _pairs(vs, bits)))
            return keep, []

        engine.round_packed(decide_step)

        # ---- step 4a: arc holders query in-I bits ---------------------- #
        def query_step(mid: int, items: list[Any]):
            arcs = _machine_arcs(items)
            keep = [arcs] + planes_except(items)
            blocks = []
            if arcs.size:
                src, dst = np.divmod(arcs, n)
                wanted = np.unique(np.concatenate([src, dst]))
                blocks.append(
                    MessageBlock(
                        "q",
                        wanted % m_machines,
                        _pairs(wanted, np.full(wanted.size, mid, dtype=np.int64)),
                    )
                )
            return keep, blocks

        engine.round_packed(query_step)

        def answer_step(mid: int, items: list[Any]):
            keep = [_machine_arcs(items)] + planes_except(items, "q")
            q = concat_planes(items, "q", 2)
            blocks = []
            if q.shape[0]:
                bits = _lookup_bits(concat_planes(items, "inI", 2), q[:, 0])
                blocks.append(MessageBlock("a", q[:, 1], _pairs(q[:, 0], bits)))
            return keep, blocks

        engine.round_packed(answer_step)

        # ---- step 4b: dominated partials back to homes ----------------- #
        def dominated_step(mid: int, items: list[Any]):
            arcs = _machine_arcs(items)
            answers = concat_planes(items, "a", 2)
            keep = [arcs] + planes_except(items, "a", "minz")
            keep.append(Plane("a", answers))
            blocks = []
            if arcs.size and answers.shape[0]:
                src, dst = np.divmod(arcs, n)
                chosen = answers[answers[:, 1] != 0, 0]
                dom_srcs = np.unique(src[np.isin(dst, chosen)])
                if dom_srcs.size:
                    blocks.append(
                        MessageBlock(
                            "dom",
                            dom_srcs % m_machines,
                            _pairs(dom_srcs, np.ones(dom_srcs.size, dtype=np.int64)),
                        )
                    )
            return keep, blocks

        engine.round_packed(dominated_step)

        # ---- step 5: homes finalise killed bits; holders re-query ------ #
        def finalize_step(mid: int, items: list[Any]):
            # Storage is rebuilt from the arcs and this phase's tables: the
            # broadcast token, the ``dom`` partials and the previous phase's
            # ``killed`` table end here.
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

        engine.round_packed(finalize_step)

        def kill_query_step(mid: int, items: list[Any]):
            arcs = _machine_arcs(items)
            keep = [arcs] + planes_except(items)
            blocks = []
            if arcs.size:
                src, dst = np.divmod(arcs, n)
                wanted = np.unique(np.concatenate([src, dst]))
                blocks.append(
                    MessageBlock(
                        "kq",
                        wanted % m_machines,
                        _pairs(wanted, np.full(wanted.size, mid, dtype=np.int64)),
                    )
                )
            return keep, blocks

        engine.round_packed(kill_query_step)

        def kill_answer_and_filter(mid: int, items: list[Any]):
            # Only the arcs and the in-I / killed tables are kept: the
            # answers and the kill queries end here.
            keep = [_machine_arcs(items)] + [
                it
                for it in items
                if isinstance(it, Plane) and it.tag in ("killed", "inI")
            ]
            kq = concat_planes(items, "kq", 2)
            blocks = []
            if kq.shape[0]:
                bits = _lookup_bits(concat_planes(items, "killed", 2), kq[:, 0])
                blocks.append(MessageBlock("ka", kq[:, 1], _pairs(kq[:, 0], bits)))
            return keep, blocks

        engine.round_packed(kill_answer_and_filter)

        def filter_step(mid: int, items: list[Any]):
            arcs = _machine_arcs(items)
            keep = planes_except(items, "ka")
            if arcs.size:
                ka = concat_planes(items, "ka", 2)
                dead = ka[ka[:, 1] != 0, 0]
                src, dst = np.divmod(arcs, n)
                arcs = arcs[~(np.isin(src, dead) | np.isin(dst, dead))]
            return [arcs] + keep, []

        engine.round_packed(filter_step)

        # Harvest decisions (observation only; no engine communication).
        for mid in range(m_machines):
            ii = concat_planes(engine.storage[mid], "inI", 2)
            chosen = ii[ii[:, 1] != 0, 0]
            in_mis[chosen] = True
            decided[chosen] = True
            kk = concat_planes(engine.storage[mid], "killed", 2)
            decided[kk[kk[:, 1] != 0, 0]] = True

    # Undecided nodes are isolated in the residual graph: they join the MIS.
    in_mis |= ~decided
    total_rounds = engine.rounds_executed - rounds0
    if stats_out is not None:
        stats_out["snapshot"] = engine.model_snapshot()
    return np.nonzero(in_mis)[0].astype(np.int64), total_rounds, phases


# ---------------------------------------------------------------------- #
# Per-machine helpers (local computation, no communication)
# ---------------------------------------------------------------------- #


def _last_wins(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-key value of the *last* occurrence (sorted unique keys).

    Storage grows in delivery order, so when a machine holds a stale row
    for a key (an earlier phase's table) and a fresh one after it, the
    later row is the current value.
    """
    rk, rv = keys[::-1], vals[::-1]
    uk, idx = np.unique(rk, return_index=True)
    return uk, rv[idx]


def _lookup_bits(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Each query's bit in a ``(k, 2)`` last-wins table, 0 when absent."""
    if table.shape[0] == 0:
        return np.zeros(queries.shape[0], dtype=np.int64)
    uk, uv = _last_wins(table[:, 0], table[:, 1])
    pos = np.minimum(np.searchsorted(uk, queries), uk.size - 1)
    return np.where(uk[pos] == queries, uv[pos], 0)


def _pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack(
        [a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)], axis=1
    )


def _machine_arcs(items: list[Any]) -> np.ndarray:
    """The machine's packed arc array (empty if it holds none)."""
    for it in items:
        if isinstance(it, np.ndarray):
            return it
    return np.empty(0, dtype=np.int64)


def _keyed_z(family: KWiseHashFamily, seed: int, nodes: np.ndarray, n: int):
    """Total-order z-keys ``z(v) * (n + 1) + v`` for a node id array."""
    z = family.evaluate(seed, nodes.astype(np.int64))
    return z.astype(np.uint64) * np.uint64(n + 1) + nodes.astype(np.uint64)


def _group_minima(src: np.ndarray, vals: np.ndarray):
    """(sorted unique srcs, per-src minimum of vals)."""
    order = np.argsort(src, kind="stable")
    s, v = src[order], vals[order]
    starts = np.nonzero(np.concatenate([[True], s[1:] != s[:-1]]))[0]
    return s[starts], np.minimum.reduceat(v, starts)
