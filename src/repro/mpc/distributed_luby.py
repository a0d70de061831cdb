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

Engine backends (``engine_backend="columnar" | "legacy"``, resolved
through ``REPRO_ENGINE_BACKEND``, default ``columnar``) pick the round
core.  ``columnar`` runs every step through
:meth:`~repro.mpc.engine.MPCEngine.round_packed`: per-machine state and
every message batch are struct-of-arrays planes, routed with one stable
argsort + ``searchsorted`` split per batch -- interpreter cost per round is
per *batch*, not per message.  ``legacy`` keeps the object-granular step
functions over packed per-machine arc arrays.  Both exchange the same
message multiset each round and charge the same words, so round counts,
capacity checks, ledger totals and the returned MIS match exactly.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..graphs.graph import Graph
from ..graphs.io import packed_arc_plane
from ..hashing.kwise import KWiseHashFamily, make_family
from ..models.plane import MessageBlock, Plane, concat_planes, resolve_engine_backend
from .engine import MPCEngine
from .primitives import broadcast_word

__all__ = ["distributed_luby_mis", "packed_arc_plane"]


def distributed_luby_mis(
    g: Graph,
    num_machines: int,
    space: int,
    *,
    max_phases: int = 200,
    engine_backend: str | None = None,
    arc_plane: np.ndarray | None = None,
    stats_out: dict | None = None,
) -> tuple[np.ndarray, int, int]:
    """Run Luby MIS end-to-end on the engine.

    Phase seeds are drawn deterministically (seed of phase ``t`` is
    ``1 + t * 7919 mod |H|`` -- any fixed schedule works; local minima exist
    for every hash, so progress never stalls).  Returns
    ``(mis_node_ids, total_engine_rounds, phases)``.

    ``arc_plane`` may carry a precomputed
    :func:`~repro.graphs.io.packed_arc_plane` (e.g. the buffer the runtime
    scheduler shipped); it must describe ``g``.  When ``stats_out`` is a
    dict, the engine's :class:`~repro.models.ledger.ModelSnapshot` is
    stored under ``stats_out["snapshot"]`` after the run (the return tuple
    stays stable for existing callers).
    """
    if arc_plane is None:
        arc_plane = packed_arc_plane(g)
    if resolve_engine_backend(engine_backend) == "columnar":
        return _distributed_luby_mis_columnar(
            g, num_machines, space, max_phases, arc_plane, stats_out
        )
    return _distributed_luby_mis_vectorized(
        g, num_machines, space, max_phases, arc_plane, stats_out
    )


# ---------------------------------------------------------------------- #
# Columnar backend: packed planes routed by the engine's argsort core
# ---------------------------------------------------------------------- #


def _last_wins(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-key value of the *last* occurrence (sorted unique keys).

    Mirrors the object path's dict-comprehension semantics, where a fresh
    ``(key, value)`` appended after a stale one overwrites it.
    """
    rk, rv = keys[::-1], vals[::-1]
    uk, idx = np.unique(rk, return_index=True)
    return uk, rv[idx]


def _lookup_bits(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``dict.get(v, 0)`` over a ``(k, 2)`` last-wins table, vectorised."""
    if table.shape[0] == 0:
        return np.zeros(queries.shape[0], dtype=np.int64)
    uk, uv = _last_wins(table[:, 0], table[:, 1])
    pos = np.minimum(np.searchsorted(uk, queries), uk.size - 1)
    return np.where(uk[pos] == queries, uv[pos], 0)


def _pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack(
        [a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)], axis=1
    )


def _distributed_luby_mis_columnar(
    g: Graph,
    num_machines: int,
    space: int,
    max_phases: int,
    arc_plane: np.ndarray,
    stats_out: dict | None = None,
) -> tuple[np.ndarray, int, int]:
    engine = MPCEngine(num_machines=num_machines, space=space)
    n = max(g.n, 1)
    # Contiguous per-machine arc slices (identical word count to loading
    # the scalars item-by-item; local representation, no round charge).
    engine.load_balanced_packed(arc_plane)

    family: KWiseHashFamily = make_family(universe=n, k=2)
    m_machines = engine.num_machines
    in_mis = np.zeros(g.n, dtype=bool)
    decided = np.zeros(g.n, dtype=bool)
    rounds0 = engine.rounds_executed
    phases = 0

    def toks(items: list[Any]) -> list[Any]:
        return [it for it in items if isinstance(it, tuple)]

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
            keep = [arcs] + toks(items) + planes_except(items)
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
            keep = (
                [_machine_arcs(items)]
                + toks(items)
                + planes_except(items, "minz")
            )
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
            keep = [arcs] + toks(items) + planes_except(items)
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
            keep = [_machine_arcs(items)] + toks(items) + planes_except(items, "q")
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
            keep = [arcs] + toks(items) + planes_except(items, "a", "minz")
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
            # The broadcast token dies here: the object path rebuilds its
            # keep list from the partial dicts, dropping passthrough tuples.
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
            keep = [arcs] + toks(items) + planes_except(items)
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
            # The answer planes die here, exactly like the object path's
            # keep filter.
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
# Object engine path: packed arc arrays per machine
# ---------------------------------------------------------------------- #


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


def _distributed_luby_mis_vectorized(
    g: Graph,
    num_machines: int,
    space: int,
    max_phases: int,
    arc_plane: np.ndarray,
    stats_out: dict | None = None,
) -> tuple[np.ndarray, int, int]:
    engine = MPCEngine(num_machines=num_machines, space=space)
    n = max(g.n, 1)
    # Contiguous per-machine arc slices (identical word count to loading
    # the scalars item-by-item; local representation, no round charge).
    engine.load_balanced_packed(arc_plane)

    family: KWiseHashFamily = make_family(universe=n, k=2)
    m_machines = engine.num_machines
    in_mis = np.zeros(g.n, dtype=bool)
    decided = np.zeros(g.n, dtype=bool)
    rounds0 = engine.rounds_executed
    phases = 0

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
            keep = [it for it in items if isinstance(it, tuple)]
            sends = []
            if arcs.size:
                src, dst = np.divmod(arcs, n)
                srcs, zmins = _group_minima(src, _keyed_z(family, seed, dst, n))
                homes = srcs % m_machines
                for s_, zmin, home in zip(
                    srcs.tolist(), zmins.tolist(), homes.tolist()
                ):
                    msg = ("minz", s_, zmin)
                    if home == mid:
                        keep.append(msg)
                    else:
                        sends.append((home, msg))
            return [arcs] + keep, sends

        engine.round(minz_step)

        # ---- step 3: home machines decide membership in I ------------- #
        def decide_step(mid: int, items: list[Any]):
            passthrough = [
                it
                for it in items
                if not (isinstance(it, tuple) and it[0] == "minz")
            ]
            mins: dict[int, int] = {}
            for it in items:
                if isinstance(it, tuple) and it[0] == "minz":
                    v, zmin = it[1], it[2]
                    if v not in mins or zmin < mins[v]:
                        mins[v] = zmin
            ii: list[tuple] = []
            if mins:
                vs = np.fromiter(mins.keys(), dtype=np.int64, count=len(mins))
                zv = _keyed_z(family, seed, vs, n)
                bits = zv < np.fromiter(
                    (np.uint64(z) for z in mins.values()),
                    dtype=np.uint64,
                    count=len(mins),
                )
                ii = [
                    ("inI", v, int(b))
                    for v, b in zip(vs.tolist(), bits.tolist())
                ]
            return passthrough + ii, []

        engine.round(decide_step)

        # ---- step 4a: arc holders query in-I bits ---------------------- #
        def query_step(mid: int, items: list[Any]):
            arcs = _machine_arcs(items)
            keep = [it for it in items if isinstance(it, tuple)]
            sends = []
            if arcs.size:
                src, dst = np.divmod(arcs, n)
                wanted = np.unique(np.concatenate([src, dst]))
                homes = wanted % m_machines
                for v, home in zip(wanted.tolist(), homes.tolist()):
                    msg = ("q", v, mid)
                    if home == mid:
                        keep.append(msg)
                    else:
                        sends.append((home, msg))
            return [arcs] + keep, sends

        engine.round(query_step)

        def answer_step(mid: int, items: list[Any]):
            in_i = {
                it[1]: it[2]
                for it in items
                if isinstance(it, tuple) and it[0] == "inI"
            }
            keep = [
                it
                for it in items
                if not (isinstance(it, tuple) and it[0] == "q")
            ]
            sends = []
            for it in items:
                if isinstance(it, tuple) and it[0] == "q":
                    v, asker = it[1], it[2]
                    msg = ("a", v, in_i.get(v, 0))
                    if asker == mid:
                        keep.append(msg)
                    else:
                        sends.append((asker, msg))
            return keep, sends

        engine.round(answer_step)

        # ---- step 4b: dominated partials back to homes ----------------- #
        def dominated_step(mid: int, items: list[Any]):
            arcs = _machine_arcs(items)
            answers = {
                it[1]: it[2]
                for it in items
                if isinstance(it, tuple) and it[0] == "a"
            }
            keep = [
                it
                for it in items
                if isinstance(it, tuple) and it[0] not in ("a", "minz")
            ]
            # retain answers for the kill step
            keep += [("a", v, bit) for v, bit in answers.items()]
            sends = []
            if arcs.size and answers:
                src, dst = np.divmod(arcs, n)
                chosen = np.fromiter(
                    (v for v, bit in answers.items() if bit),
                    dtype=np.int64,
                )
                dom_srcs = np.unique(src[np.isin(dst, chosen)])
                homes = dom_srcs % m_machines
                for v, home in zip(dom_srcs.tolist(), homes.tolist()):
                    msg = ("dom", v, 1)
                    if home == mid:
                        keep.append(msg)
                    else:
                        sends.append((home, msg))
            return [arcs] + keep, sends

        engine.round(dominated_step)

        # ---- step 5: homes finalise killed bits; holders re-query ------ #
        def finalize_step(mid: int, items: list[Any]):
            arcs = _machine_arcs(items)
            in_i = {}
            dom = {}
            answers = {}
            for it in items:
                if isinstance(it, tuple):
                    if it[0] == "inI":
                        in_i[it[1]] = it[2]
                    elif it[0] == "dom":
                        dom[it[1]] = max(dom.get(it[1], 0), it[2])
                    elif it[0] == "a":
                        answers[it[1]] = it[2]
            killed = [
                ("killed", v, 1 if (bit or dom.get(v, 0)) else 0)
                for v, bit in in_i.items()
            ]
            keep = [("a", v, b) for v, b in answers.items()]
            keep += [("inI", v, b) for v, b in in_i.items()]
            return [arcs] + keep + killed, []

        engine.round(finalize_step)

        def kill_query_step(mid: int, items: list[Any]):
            arcs = _machine_arcs(items)
            keep = [it for it in items if isinstance(it, tuple)]
            sends = []
            if arcs.size:
                src, dst = np.divmod(arcs, n)
                wanted = np.unique(np.concatenate([src, dst]))
                homes = wanted % m_machines
                for v, home in zip(wanted.tolist(), homes.tolist()):
                    msg = ("kq", v, mid)
                    if home == mid:
                        keep.append(msg)
                    else:
                        sends.append((home, msg))
            return [arcs] + keep, sends

        engine.round(kill_query_step)

        def kill_answer_and_filter(mid: int, items: list[Any]):
            killed_bits = {
                it[1]: it[2]
                for it in items
                if isinstance(it, tuple) and it[0] == "killed"
            }
            sends = []
            keep: list[Any] = []
            for it in items:
                if isinstance(it, tuple) and it[0] == "kq":
                    v, asker = it[1], it[2]
                    msg = ("ka", v, killed_bits.get(v, 0))
                    if asker == mid:
                        keep.append(msg)
                    else:
                        sends.append((asker, msg))
                elif isinstance(it, tuple) and it[0] in ("killed", "inI"):
                    keep.append(it)
                elif isinstance(it, np.ndarray):
                    keep.append(it)
            return keep, sends

        engine.round(kill_answer_and_filter)

        def filter_step(mid: int, items: list[Any]):
            arcs = _machine_arcs(items)
            keep = [
                it
                for it in items
                if isinstance(it, tuple) and it[0] in ("killed", "inI")
            ]
            if arcs.size:
                src, dst = np.divmod(arcs, n)
                dead = np.fromiter(
                    (
                        it[1]
                        for it in items
                        if isinstance(it, tuple) and it[0] == "ka" and it[2]
                    ),
                    dtype=np.int64,
                )
                alive = ~(np.isin(src, dead) | np.isin(dst, dead))
                arcs = arcs[alive]
            return [arcs] + keep, []

        engine.round(filter_step)

        # Harvest decisions (observation only; no engine communication).
        for mid in range(m_machines):
            for it in engine.storage[mid]:
                if isinstance(it, tuple) and it[0] == "inI" and it[2]:
                    in_mis[it[1]] = True
                    decided[it[1]] = True
                if isinstance(it, tuple) and it[0] == "killed" and it[2]:
                    decided[it[1]] = True

    # Undecided nodes are isolated in the residual graph: they join the MIS.
    in_mis |= ~decided
    total_rounds = engine.rounds_executed - rounds0
    if stats_out is not None:
        stats_out["snapshot"] = engine.model_snapshot()
    return np.nonzero(in_mis)[0].astype(np.int64), total_rounds, phases
