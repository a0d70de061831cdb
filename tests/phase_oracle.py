"""Reference copies of the six Luby selection bodies, one per call site.

Before the solvers shared :mod:`repro.models.phase`, each built its own
keys, neighbour tables and seed blocks: the Section-5 phase loop
(:func:`lowdeg_mis_oracle`), the two derandomized Luby steps of Sections 3.3
and 4.3 (:func:`luby_matching_step_oracle`, :func:`luby_mis_step_oracle`),
the CONGESTED CLIQUE MIS and matching (:func:`cc_mis_oracle`,
:func:`cc_maximal_matching_oracle`) and the CONGEST MIS
(:func:`congest_mis_oracle`).  These are those bodies, kept as the
reference the phase kernel is compared with: every solution, bill, record
and trace must come out the same.

Only what ``src/`` keeps is imported; the deleted helpers -- the two
block reducers with their own padded tables, the padded table itself and
its ``PAD_FACTOR`` bound, the prefix counter behind one of the reducers,
the clique/CONGEST kernel class, the two ``A``-set copies and the
``B -> Q'`` arc helper -- are carried here as plain-numpy copies.  The
Section-5 colour family was a renaming wrapper around the pairwise family
``make_color_family`` returns now; its ``evaluate_colors_batch`` is that
family's ``evaluate_batch``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.greedy import greedy_matching
from repro.cclique.mis_cc import CCResult
from repro.cclique.model import CongestedCliqueContext
from repro.congest.mis_congest import CongestMISResult
from repro.congest.model import CongestContext
from repro.core.lowdeg import phases_per_stage
from repro.core.luby_step import LubyStepInfo, first_k_arcs
from repro.core.params import Params
from repro.core.records import IterationRecord, MISResult
from repro.derand import strategies as _strategies
from repro.derand.strategies import select_seed_batch
from repro.graphs.coloring import distance2_coloring
from repro.graphs.graph import Graph
from repro.graphs.kernels import group_order_indptr
from repro.graphs.power import BallTooLargeError, ball_sizes
from repro.hashing.families import make_color_family, make_product_family
from repro.mpc.context import MPCContext

MAXKEY = np.uint64(2**63 - 1)
_SEED_BLOCK_BYTES = 1 << 28
#: The padded tables were used while the padded grid was at most this many
#: times the number of arcs; beyond that the scatter fallback ran.
PAD_FACTOR = 4


# ---------------------------------------------------------------------- #
# Deleted helpers
# ---------------------------------------------------------------------- #


def segment_count_2d(mask, indptr):
    """int32[S, n]: per-segment count of True along axis 1 (0 when empty),
    by a per-row prefix sum and boundary differences."""
    s, width = mask.shape
    n = indptr.size - 1
    if width == 0 or n == 0:
        return np.zeros((s, n), dtype=np.int32)
    cum = np.cumsum(mask, axis=1, dtype=np.int32)
    bounds = cum[:, np.maximum(indptr - 1, 0)]
    bounds[:, indptr == 0] = 0
    return bounds[:, 1:] - bounds[:, :-1]


def _padded_table(cols, indptr, sentinel):
    m = indptr.size - 1
    sizes = np.diff(indptr)
    w_max = int(sizes.max(initial=0))
    if w_max == 0 or w_max * m > PAD_FACTOR * max(cols.size, 1):
        return None
    table = np.full((m, w_max), sentinel, dtype=np.int64)
    rank = np.arange(cols.size, dtype=np.int64) - np.repeat(indptr[:-1], sizes)
    table[np.repeat(np.arange(m, dtype=np.int64), sizes), rank] = cols
    return table


def segment_min_block_fn(cols, indptr, width):
    m = indptr.size - 1
    table = _padded_table(cols, indptr, width)
    if table is not None:

        def f_padded(values, fill):
            ext = np.concatenate(
                [values, np.full((values.shape[0], 1), fill, dtype=values.dtype)],
                axis=1,
            )
            return ext[:, table].min(axis=2)

        return f_padded

    owners = np.repeat(np.arange(m, dtype=np.int64), np.diff(indptr))

    def f_scatter(values, fill):
        out = np.full((values.shape[0], m), fill, dtype=values.dtype)
        gathered = values[:, cols]
        for s in range(values.shape[0]):
            np.minimum.at(out[s], owners, gathered[s])
        return out

    return f_scatter


def segment_any_block_fn(cols, indptr, width):
    table = _padded_table(cols, indptr, width)
    if table is not None:

        def f_padded(mask):
            ext = np.concatenate(
                [mask, np.zeros((mask.shape[0], 1), dtype=bool)], axis=1
            )
            return ext[:, table].any(axis=2)

        return f_padded

    def f_fallback(mask):
        return segment_count_2d(mask[:, cols], indptr) > 0

    return f_fallback


class LubyPhaseKernel:
    def __init__(self, g: Graph, n: int) -> None:
        self.n = n
        self.live = g.degrees() > 0
        self._nbr_min = segment_min_block_fn(g.indices, g.indptr, n)
        self._nbr_any = segment_any_block_fn(g.indices, g.indptr, n)

    def masks(self, key, live=None):
        live_mask = self.live if live is None else live
        nbr_min = self._nbr_min(key, MAXKEY)
        i_mask = live_mask[None, :] & (key < nbr_min)
        covered = self._nbr_any(i_mask)
        return i_mask, i_mask | covered


def _a_set_weight(g: Graph):
    deg = g.degrees().astype(np.float64)
    inv = np.zeros(g.n, dtype=np.float64)
    nz = deg > 0
    inv[nz] = 1.0 / deg[nz]
    acc = np.zeros(g.n, dtype=np.float64)
    if g.m:
        np.add.at(acc, g.edges_u, inv[g.edges_v])
        np.add.at(acc, g.edges_v, inv[g.edges_u])
    a_mask = (acc >= 1.0 / 3.0 - 1e-12) & (deg > 0)
    return a_mask, float(deg[a_mask].sum())


def _phase_target(g: Graph):
    deg = g.degrees().astype(np.float64)
    inv = np.zeros(g.n)
    nz = deg > 0
    inv[nz] = 1.0 / deg[nz]
    acc = np.zeros(g.n)
    np.add.at(acc, g.edges_u, inv[g.edges_v])
    np.add.at(acc, g.edges_v, inv[g.edges_u])
    a_mask = (acc >= 1.0 / 3.0 - 1e-12) & (deg > 0)
    w_a = float(deg[a_mask].sum())
    return a_mask, 0.01 * w_a


def _arcs_b_to_q(g: Graph, b_mask, q_mask):
    eu, ev = g.edges_u, g.edges_v
    fwd = b_mask[eu] & q_mask[ev]
    bwd = b_mask[ev] & q_mask[eu]
    groups = np.concatenate([eu[fwd], ev[bwd]])
    units = np.concatenate([ev[fwd], eu[bwd]])
    return groups, units


# ---------------------------------------------------------------------- #
# Section 5 (core/lowdeg.py)
# ---------------------------------------------------------------------- #


def lowdeg_mis_oracle(graph: Graph, params: Params | None = None) -> MISResult:
    params = params or Params()
    ctx = MPCContext.for_graph(graph, params)
    fidelity: list[str] = []
    records: list[IterationRecord] = []
    n = graph.n
    delta_max = graph.max_degree()

    if graph.m == 0:
        return MISResult(
            independent_set=np.arange(n, dtype=np.int64),
            iterations=0,
            rounds=0,
            rounds_by_category={"total": 0},
            max_machine_words=0,
            space_limit=ctx.S,
            records=tuple(),
            stages_compressed=0,
            num_colors=0,
        )

    ball2_sizes = ball_sizes(graph, 2)
    coloring = distance2_coloring(graph, sizes=ball2_sizes)
    ctx.charge(
        "coloring",
        max(1, coloring.iterations),
        words=2 * graph.m * max(1, coloring.iterations),
    )
    family = make_color_family(coloring.num_colors)
    colors = coloring.colors.astype(np.int64)

    ell = phases_per_stage(n, delta_max, params)
    while ell > 1:
        try:
            sizes = ball_sizes(graph, 2 * ell, max_ball=ctx.S - 1)
            break
        except BallTooLargeError:
            ell -= 1
    else:
        sizes = ball2_sizes
    r = 2 * ell
    ctx.observe_loads(sizes + 1, "r-hop ball gather")
    ctx.charge_gather_rhop(r, "preprocess_gather", words=int(sizes.sum()))

    in_mis = np.zeros(n, dtype=bool)
    removed = np.zeros(n, dtype=bool)
    g = graph
    phase = 0
    cap = 64 + 16 * max(1, int(np.ceil(np.log2(max(graph.m, 2)))))
    stride = np.uint64(n + 1)

    while g.m > 0:
        phase += 1
        if phase > cap:
            raise RuntimeError(
                f"low-degree MIS failed to converge within {cap} phases"
            )
        edges_before = g.m

        iso = g.isolated_mask() & ~removed
        in_mis |= iso
        removed |= iso

        a_mask, w_a = _a_set_weight(g)
        deg = g.degrees().astype(np.float64)
        live = np.nonzero(deg > 0)[0].astype(np.int64)
        nbr_min_fn = segment_min_block_fn(g.indices, g.indptr, n)
        nbr_any_fn = segment_any_block_fn(g.indices, g.indptr, n)
        key_dtype = (
            np.uint32 if family.range * (n + 1) + n < 2**32 else np.uint64
        )
        stride_k = key_dtype(stride)
        seed_bytes = n * (g.max_degree() + 1) * (np.dtype(key_dtype).itemsize + 1)
        chunk = min(
            _strategies.DEFAULT_SEED_CHUNK,
            max(1, _SEED_BLOCK_BYTES // seed_bytes),
        )
        maxkey_k = key_dtype(np.iinfo(key_dtype).max)
        live_k = live.astype(key_dtype)
        deg_sel = (g.degrees() * a_mask).astype(np.int64)

        def compute_i_masks(seeds):
            z = family.evaluate_batch(seeds, colors[live]).astype(key_dtype)
            key_full = np.full((z.shape[0], n), maxkey_k, dtype=key_dtype)
            key_full[:, live] = z * stride_k + live_k[None, :]
            nbr_min = nbr_min_fn(key_full, maxkey_k)
            i_mask = np.zeros(key_full.shape, dtype=bool)
            i_mask[:, live] = key_full[:, live] < nbr_min[:, live]
            return i_mask

        def batch_objective(seeds):
            i_mask = compute_i_masks(seeds)
            covered = nbr_any_fn(i_mask)
            return ((covered | i_mask) @ deg_sel).astype(np.float64)

        target = params.mis_target(w_a)
        start = 1 + ((phase - 1) * params.max_scan_trials) % max(
            1, family.size - 1
        )
        sel = select_seed_batch(
            family.size,
            batch_objective,
            target=target,
            max_trials=params.max_scan_trials,
            start=start,
            chunk_size=chunk,
        )
        if not sel.satisfied:
            fidelity.append(
                f"lowdeg phase {phase}: target {target:.2f} not met "
                f"(best {sel.value:.2f})"
            )

        i_mask = compute_i_masks(np.array([sel.seed], dtype=np.int64))[0]
        del nbr_min_fn, nbr_any_fn
        dominated = g.degrees_toward(i_mask) > 0
        kill = i_mask | dominated
        in_mis |= i_mask
        removed |= kill
        g = g.remove_vertices(kill)

        records.append(
            IterationRecord(
                iteration=phase,
                edges_before=edges_before,
                edges_after=g.m,
                i_star=1,
                num_good_nodes=int(a_mask.sum()),
                weight_b=w_a,
                stages=tuple(),
                selection_value=sel.value,
                selection_target=target,
                selection_trials=sel.trials,
                selection_satisfied=sel.satisfied,
                seed_bits=family.seed_bits,
                nodes_removed=int(kill.sum()),
            )
        )

    in_mis |= ~removed
    stages = max(1, math.ceil(phase / ell))
    for _ in range(stages):
        ctx.charge_aggregate("stage")
        ctx.charge_broadcast("stage")

    return MISResult(
        independent_set=np.nonzero(in_mis)[0].astype(np.int64),
        iterations=phase,
        rounds=ctx.rounds,
        rounds_by_category={**ctx.by_category, "total": ctx.rounds},
        max_machine_words=ctx.max_words_seen,
        space_limit=ctx.S,
        words_moved=ctx.words_moved,
        records=tuple(records),
        fidelity_events=tuple(fidelity),
        stages_compressed=stages,
        num_colors=coloring.num_colors,
    )


# ---------------------------------------------------------------------- #
# Sections 3.3 and 4.3 (core/luby_step.py)
# ---------------------------------------------------------------------- #


def _select(family_size, batch_objective, params: Params, target: float):
    return select_seed_batch(
        family_size,
        batch_objective,
        target=target,
        max_trials=params.max_scan_trials,
    )


def luby_matching_step_oracle(g, e_star_mask, good, params, ctx, fidelity):
    eids = np.nonzero(np.asarray(e_star_mask, dtype=bool))[0].astype(np.int64)
    if eids.size == 0:
        raise ValueError("luby_matching_step requires a non-empty E*")
    us, vs = g.edges_u[eids], g.edges_v[eids]
    deg = g.degrees().astype(np.float64)

    d_star = g.degrees_within(e_star_mask).astype(np.int64)
    two_hop = np.zeros(g.n, dtype=np.int64)
    np.add.at(two_hop, us, d_star[vs] + 1)
    np.add.at(two_hop, vs, d_star[us] + 1)
    b_ids = np.nonzero(good.b_mask)[0]
    if b_ids.size:
        ctx.observe_loads(two_hop[b_ids], "2-hop E* gather")
    ctx.charge_gather_2hop(
        "luby_gather", words=int(two_hop[b_ids].sum()) if b_ids.size else 0
    )

    family = make_product_family(max(g.m, 2), k=2, min_q=params.min_q)
    stride = np.uint64(g.m + 1)
    if family.range * (g.m + 1) >= 2**62:
        raise ValueError("key space too large; reduce m or field size")
    maxkey = np.uint64(2**63 - 1)

    b_u = good.b_mask[us]
    b_v = good.b_mask[vs]
    w_u = deg[us]
    w_v = deg[vs]
    eids_u64 = eids.astype(np.uint64)

    inc_nodes = np.concatenate([us, vs])
    inc_pos = np.concatenate([np.arange(eids.size, dtype=np.int64)] * 2)
    inc_order, inc_indptr = group_order_indptr(inc_nodes, g.n)
    node_min_fn = segment_min_block_fn(inc_pos[inc_order], inc_indptr, eids.size)

    def matched_masks(seeds):
        z = family.evaluate_batch(seeds, eids)
        key = z * stride + eids_u64[None, :]
        node_min = node_min_fn(key, maxkey)
        return (key == node_min[:, us]) & (key == node_min[:, vs])

    def batch_objective(seeds):
        matched = matched_masks(seeds)
        return (
            np.where(matched & b_u[None, :], w_u[None, :], 0.0).sum(axis=1)
            + np.where(matched & b_v[None, :], w_v[None, :], 0.0).sum(axis=1)
        )

    target = params.matching_target(good.weight_b)
    sel = _select(family.size, batch_objective, params, target)
    ctx.charge_seed_fix(family.seed_bits, "luby_seed")
    if not sel.satisfied:
        fidelity.append(
            f"matching step: scan target {target:.2f} not met "
            f"(best {sel.value:.2f}); using best seed"
        )

    matched = matched_masks(np.array([sel.seed], dtype=np.int64))[0]
    info = LubyStepInfo(
        selection=sel, target=target, seed_bits=family.seed_bits,
        family_size=family.size,
    )
    return eids[matched], info


def luby_mis_step_oracle(g, q_prime_mask, good, params, ctx, fidelity):
    q_mask = np.asarray(q_prime_mask, dtype=bool)
    q_ids = np.nonzero(q_mask)[0].astype(np.int64)
    if q_ids.size == 0:
        raise ValueError("luby_mis_step requires a non-empty Q'")
    deg = g.degrees().astype(np.float64)

    internal = q_mask[g.edges_u] & q_mask[g.edges_v]
    iu = g.edges_u[internal]
    iv = g.edges_v[internal]

    chunk = params.chunk_size(g.n)
    groups_b, units_b = _arcs_b_to_q(g, good.b_mask, q_mask)
    nb_groups, nb_units = first_k_arcs(groups_b, units_b, chunk)

    d_q = g.degrees_toward(q_mask).astype(np.int64)
    words = np.zeros(g.n, dtype=np.int64)
    if nb_groups.size:
        np.add.at(words, nb_groups, 1 + d_q[nb_units])
    b_ids = np.nonzero(good.b_mask)[0]
    if b_ids.size:
        ctx.observe_loads(words[b_ids], "N_v gather")
    ctx.charge_gather_2hop(
        "luby_gather", words=int(words[b_ids].sum()) if b_ids.size else 0
    )

    family = make_product_family(max(g.n, 2), k=2, min_q=params.min_q)
    stride = np.uint64(g.n + 1)
    if family.range * (g.n + 1) >= 2**62:
        raise ValueError("key space too large; reduce n or field size")
    maxkey = np.uint64(2**63 - 1)

    w_b = deg
    q_u64 = q_ids.astype(np.uint64)

    adj_nodes = np.concatenate([iu, iv])
    adj_nbrs = np.concatenate([iv, iu])
    adj_order, adj_indptr = group_order_indptr(adj_nodes, g.n)
    nbr_min_fn = segment_min_block_fn(adj_nbrs[adj_order], adj_indptr, g.n)
    nb_order, nb_indptr = group_order_indptr(nb_groups, g.n)
    nb_any_fn = segment_any_block_fn(nb_units[nb_order], nb_indptr, g.n)

    def compute_i_masks(seeds):
        z = family.evaluate_batch(seeds, q_ids)
        key_full = np.full((z.shape[0], g.n), maxkey, dtype=np.uint64)
        key_full[:, q_ids] = z * stride + q_u64[None, :]
        nbr_min = nbr_min_fn(key_full, maxkey)
        i_mask = np.zeros(key_full.shape, dtype=bool)
        i_mask[:, q_ids] = key_full[:, q_ids] < nbr_min[:, q_ids]
        return i_mask

    def batch_objective(seeds):
        i_mask = compute_i_masks(seeds)
        flagged = nb_any_fn(i_mask)
        sel_mask = flagged & good.b_mask[None, :]
        return np.where(sel_mask, w_b[None, :], 0.0).sum(axis=1)

    target = params.mis_target(good.weight_b)
    sel = _select(family.size, batch_objective, params, target)
    ctx.charge_seed_fix(family.seed_bits, "luby_seed")
    if not sel.satisfied:
        fidelity.append(
            f"MIS step: scan target {target:.2f} not met "
            f"(best {sel.value:.2f}); using best seed"
        )

    i_mask = compute_i_masks(np.array([sel.seed], dtype=np.int64))[0]
    info = LubyStepInfo(
        selection=sel, target=target, seed_bits=family.seed_bits,
        family_size=family.size,
    )
    return i_mask, info


# ---------------------------------------------------------------------- #
# CONGESTED CLIQUE (cclique/mis_cc.py)
# ---------------------------------------------------------------------- #


def cc_mis_oracle(
    graph: Graph, *, charge_mode: str = "ours", max_scan_trials: int = 512
) -> CCResult:
    ctx = CongestedCliqueContext(n=graph.n)
    family = make_product_family(max(graph.n, 2), k=2)
    stride = np.uint64(graph.n + 1)
    ids_all = np.arange(graph.n, dtype=np.int64)

    in_mis = np.zeros(graph.n, dtype=bool)
    removed = np.zeros(graph.n, dtype=bool)
    g = graph
    trace: list[int] = []
    phase = 0

    while g.m > graph.n:
        phase += 1
        trace.append(g.m)
        iso = g.isolated_mask() & ~removed
        in_mis |= iso
        removed |= iso

        a_mask, target = _phase_target(g)
        deg = g.degrees().astype(np.float64)
        ids_u64 = ids_all.astype(np.uint64)
        kernel = LubyPhaseKernel(g, graph.n)

        def kill_masks(seeds):
            key = family.evaluate_batch(seeds, ids_all) * stride + ids_u64[None, :]
            return kernel.masks(key)

        def batch_objective(seeds):
            _, kill = kill_masks(seeds)
            return np.where(kill & a_mask[None, :], deg[None, :], 0.0).sum(axis=1)

        start = 1 + (phase - 1) * max_scan_trials
        sel = select_seed_batch(
            family.size,
            batch_objective,
            target=target,
            max_trials=max_scan_trials,
            start=start,
        )
        i_masks, kills = kill_masks(np.array([sel.seed], dtype=np.int64))
        i_mask, kill = i_masks[0], kills[0]
        in_mis |= i_mask
        removed |= kill
        g = g.remove_vertices(kill)

        if charge_mode == "ours":
            ctx.charge("phase", 1)
            ctx.charge_broadcast("phase")
        else:
            ctx.charge("phase_voting", family.seed_bits)
            ctx.charge_broadcast("phase_voting")

    remainder_edges = g.m
    if g.m > 0:
        trace.append(g.m)
        ctx.charge_collect_graph(g.m, "collect_remainder")
        for v in np.nonzero(~removed)[0].tolist():
            if removed[v]:
                continue
            in_mis[v] = True
            removed[v] = True
            removed[g.neighbors(v)] = True
        ctx.charge_broadcast("announce")

    in_mis |= ~removed
    return CCResult(
        solution=np.nonzero(in_mis)[0].astype(np.int64),
        phases=phase,
        rounds=ctx.rounds,
        edge_trace=tuple(trace),
        algorithm=f"cc_mis[{charge_mode}]",
        collected_remainder_edges=remainder_edges,
        snapshot=ctx.model_snapshot(),
    )


def cc_maximal_matching_oracle(
    graph: Graph, *, charge_mode: str = "ours", max_scan_trials: int = 512
) -> CCResult:
    ctx = CongestedCliqueContext(n=graph.n)
    pairs: list[np.ndarray] = []
    g = graph
    trace: list[int] = []
    phase = 0

    while g.m > graph.n:
        phase += 1
        trace.append(g.m)
        family = make_product_family(max(g.m, 2), k=2)
        eids = np.arange(g.m, dtype=np.int64)
        eids_u64 = eids.astype(np.uint64)
        stride = np.uint64(g.m + 1)
        deg = g.degrees().astype(np.float64)
        eu, ev = g.edges_u, g.edges_v
        w_u, w_v = deg[eu], deg[ev]
        inc_nodes = np.concatenate([eu, ev])
        inc_pos = np.concatenate([eids, eids])
        inc_order, inc_indptr = group_order_indptr(inc_nodes, graph.n)
        node_min_fn = segment_min_block_fn(
            inc_pos[inc_order], inc_indptr, eids.size
        )

        def matched_masks(seeds):
            key = family.evaluate_batch(seeds, eids) * stride + eids_u64[None, :]
            node_min = node_min_fn(key, MAXKEY)
            return (key == node_min[:, eu]) & (key == node_min[:, ev])

        def batch_objective(seeds):
            mm = matched_masks(seeds)
            return (
                np.where(mm, w_u[None, :], 0.0).sum(axis=1)
                + np.where(mm, w_v[None, :], 0.0).sum(axis=1)
            )

        target = float(g.m) / 109.0
        start = 1 + (phase - 1) * max_scan_trials
        sel = select_seed_batch(
            family.size,
            batch_objective,
            target=target,
            max_trials=max_scan_trials,
            start=start,
        )
        mm = matched_masks(np.array([sel.seed], dtype=np.int64))[0]
        eid_sel = np.nonzero(mm)[0]
        pairs.append(np.stack([eu[eid_sel], ev[eid_sel]], axis=1))
        kill = np.zeros(graph.n, dtype=bool)
        kill[eu[eid_sel]] = True
        kill[ev[eid_sel]] = True
        g = g.remove_vertices(kill)

        if charge_mode == "ours":
            ctx.charge("phase", 1)
            ctx.charge_broadcast("phase")
        else:
            ctx.charge("phase_voting", family.seed_bits)
            ctx.charge_broadcast("phase_voting")

    remainder_edges = g.m
    if g.m > 0:
        trace.append(g.m)
        ctx.charge_collect_graph(g.m, "collect_remainder")
        rest = greedy_matching(g)
        if rest.size:
            pairs.append(rest)
        ctx.charge_broadcast("announce")

    sol = (
        np.concatenate(pairs, axis=0) if pairs else np.empty((0, 2), dtype=np.int64)
    )
    return CCResult(
        solution=sol,
        phases=phase,
        rounds=ctx.rounds,
        edge_trace=tuple(trace),
        algorithm=f"cc_matching[{charge_mode}]",
        collected_remainder_edges=remainder_edges,
        snapshot=ctx.model_snapshot(),
    )


# ---------------------------------------------------------------------- #
# CONGEST (congest/mis_congest.py)
# ---------------------------------------------------------------------- #


def congest_mis_oracle(
    graph: Graph,
    *,
    mode: str = "color-compressed",
    max_scan_trials: int = 512,
    pipeline_seed_fix: bool = False,
) -> CongestMISResult:
    ctx = CongestContext(graph, pipeline_seed_fix=pipeline_seed_fix)
    n = graph.n

    if mode == "color-compressed" and graph.m > 0:
        coloring = distance2_coloring(graph)
        ctx.charge("coloring", max(1, coloring.iterations))
        family = make_color_family(coloring.num_colors)
        keys_of = coloring.colors.astype(np.int64)
    else:
        family = make_product_family(max(n, 2), k=2)
        keys_of = np.arange(n, dtype=np.int64)
    seed_bits = family.seed_bits
    fam_size = family.size

    stride = np.uint64(n + 1)
    in_mis = np.zeros(n, dtype=bool)
    removed = np.zeros(n, dtype=bool)
    g = graph
    trace: list[int] = []
    phase = 0

    while g.m > 0:
        phase += 1
        trace.append(g.m)
        iso = g.isolated_mask() & ~removed
        in_mis |= iso
        removed |= iso

        kernel = LubyPhaseKernel(g, n)
        live = np.nonzero(kernel.live)[0].astype(np.int64)
        live_u64 = live.astype(np.uint64)
        eu, ev = g.edges_u, g.edges_v

        def kill_of(seeds):
            z = family.evaluate_batch(seeds, keys_of[live])
            key = np.full((z.shape[0], n), MAXKEY, dtype=np.uint64)
            key[:, live] = z * stride + live_u64[None, :]
            return kernel.masks(key)

        def batch_objective(seeds):
            _, kill = kill_of(seeds)
            return (kill[:, eu] | kill[:, ev]).sum(axis=1).astype(np.float64)

        start = 1 + ((phase - 1) * max_scan_trials) % max(1, fam_size - 1)
        sel = select_seed_batch(
            fam_size,
            batch_objective,
            target=g.m / 120.0,
            max_trials=max_scan_trials,
            start=start,
        )
        i_masks, kills = kill_of(np.array([sel.seed], dtype=np.int64))
        i_mask, kill = i_masks[0], kills[0]
        in_mis |= i_mask
        removed |= kill
        g = g.remove_vertices(kill)

        ctx.charge_local("phase_local")
        ctx.charge_seed_fix(seed_bits, "phase_seed")

    in_mis |= ~removed
    return CongestMISResult(
        independent_set=np.nonzero(in_mis)[0].astype(np.int64),
        phases=phase,
        rounds=ctx.rounds,
        bfs_depth=ctx.depth,
        seed_bits_per_phase=seed_bits,
        mode=mode,
        edge_trace=tuple(trace),
        snapshot=ctx.model_snapshot(),
    )
