"""Derandomized Luby selection on the sparsified structure (Secs 3.3, 4.3).

After sparsification, 2-hop neighbourhoods in ``E*`` / ``Q'`` fit on single
machines, so one more derandomization step selects:

* a matching ``M = E_h ⊆ E*`` -- edge ``e`` joins iff its z-value is a strict
  local minimum among ``E*``-adjacent edges (Section 3.3); the objective is
  ``sum_{v in B, v matched} d(v)`` whose expectation Lemma 13 lower-bounds by
  ``W_B / 109``;
* an independent set ``I_h ⊆ Q'`` -- node ``v`` joins iff its z-value beats
  all ``Q'``-neighbours (Section 4.3); the objective is
  ``sum_{v in B : N_v ∩ I_h != ∅} d(v)`` with expectation ``>= 0.01 delta
  W_B`` by Lemma 21, where ``N_v`` is (up to) ``n^{4 delta}`` of ``v``'s
  ``Q'``-neighbours.

z-values come from a *pairwise* product family over ids (wide range, so ties
are negligible; residual ties break by id, which can only merge in favour of
lower ids and never breaks matching/independence).  The strategy
``conditional_expectation`` swaps in a small single-field family so the whole
family is enumerable -- the literal Section-2.4 machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..derand.strategies import BatchObjective, SeedSelection, select_seed_batch
from ..graphs.graph import Graph
from ..graphs.kernels import (
    group_order_indptr,
    segment_any_block_fn,
    segment_min_block_fn,
)
from ..hashing.families import ProductHashFamily, make_product_family
from ..hashing.kwise import KWiseHashFamily, make_family
from ..mpc.context import MPCContext
from .good_nodes import GoodNodesMatching, GoodNodesMIS
from .params import Params

__all__ = ["LubyStepInfo", "first_k_arcs", "luby_matching_step", "luby_mis_step"]


@dataclass(frozen=True)
class LubyStepInfo:
    """Bookkeeping of one derandomized Luby selection."""

    selection: SeedSelection
    target: float
    seed_bits: int
    family_size: int


def _choose_z_family(
    universe: int, params: Params
) -> ProductHashFamily | KWiseHashFamily:
    """Pairwise z-value family; enumerable variant for cond.-expectation."""
    if params.strategy == "conditional_expectation":
        fam = make_family(universe=max(universe, 2), k=2, min_q=5)
        if fam.size > params.enumeration_cap:
            raise ValueError(
                f"conditional_expectation needs an enumerable family; "
                f"universe {universe} gives {fam.size} seeds "
                f"(> cap {params.enumeration_cap}) -- use a smaller input or "
                f"strategy='scan'"
            )
        return fam
    return make_product_family(max(universe, 2), k=2, min_q=params.min_q)


def _select(
    family_size: int, batch_objective: BatchObjective, params: Params, target: float
) -> SeedSelection:
    return select_seed_batch(
        family_size,
        batch_objective,
        strategy=params.strategy,
        target=target,
        max_trials=params.max_scan_trials,
        enumeration_cap=params.enumeration_cap,
        best_of_k=params.best_of_k,
    )


def first_k_arcs(
    groups: np.ndarray, units: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Keep, for every group, its first ``k`` arcs (stable by input order).

    Implements the paper's "gather a set ``N_v`` of up to ``n^{4 delta}`` of
    v's neighbours in ``Q'`` (arbitrary subset)" deterministically.
    """
    if groups.size == 0:
        return groups, units
    order = np.argsort(groups, kind="stable")
    sg = groups[order]
    starts = np.nonzero(np.concatenate([[True], sg[1:] != sg[:-1]]))[0]
    sizes = np.diff(np.concatenate([starts, [sg.size]]))
    rank = np.arange(sg.size, dtype=np.int64) - np.repeat(starts, sizes)
    keep_sorted = rank < k
    keep = np.zeros(groups.size, dtype=bool)
    keep[order[keep_sorted]] = True
    return groups[keep], units[keep]


# ---------------------------------------------------------------------- #
# Matching (Section 3.3)
# ---------------------------------------------------------------------- #


def luby_matching_step(
    g: Graph,
    e_star_mask: np.ndarray,
    good: GoodNodesMatching,
    params: Params,
    ctx: MPCContext,
    fidelity: list[str],
) -> tuple[np.ndarray, LubyStepInfo]:
    """Pick a matching ``M ⊆ E*`` covering weight ``>= target``.

    Returns the matched edge ids (into ``g``'s edge arrays) and step info.
    """
    eids = np.nonzero(np.asarray(e_star_mask, dtype=bool))[0].astype(np.int64)
    if eids.size == 0:
        raise ValueError("luby_matching_step requires a non-empty E*")
    us, vs = g.edges_u[eids], g.edges_v[eids]
    deg = g.degrees().astype(np.float64)

    # 2-hop gather space accounting: machine x_v stores, for each E*-incident
    # edge of v, that edge plus its E*-adjacent edges.
    d_star = g.degrees_within(e_star_mask).astype(np.int64)
    two_hop = np.zeros(g.n, dtype=np.int64)
    np.add.at(two_hop, us, d_star[vs] + 1)
    np.add.at(two_hop, vs, d_star[us] + 1)
    b_ids = np.nonzero(good.b_mask)[0]
    if b_ids.size:
        ctx.observe_loads(two_hop[b_ids], "2-hop E* gather")
    # Volume: every gathered 2-hop item is one word shipped to x_v.
    ctx.charge_gather_2hop(
        "luby_gather", words=int(two_hop[b_ids].sum()) if b_ids.size else 0
    )

    family = _choose_z_family(g.m, params)
    # Local-minimum keys: z * (m + 1) + edge_id, strict total order.
    stride = np.uint64(g.m + 1)
    if family.range * (g.m + 1) >= 2**62:
        raise ValueError("key space too large; reduce m or field size")
    maxkey = np.uint64(2**63 - 1)

    b_u = good.b_mask[us]
    b_v = good.b_mask[vs]
    w_u = deg[us]
    w_v = deg[vs]
    eids_u64 = eids.astype(np.uint64)

    # Incidence grouping of the E* arcs (both orientations), sorted by node:
    # per-node minima over incident E*-edges become one 2-D reduceat.
    inc_nodes = np.concatenate([us, vs])
    inc_pos = np.concatenate(
        [np.arange(eids.size, dtype=np.int64)] * 2
    )
    inc_order, inc_indptr = group_order_indptr(inc_nodes, g.n)
    node_min_fn = segment_min_block_fn(inc_pos[inc_order], inc_indptr, eids.size)

    def matched_masks(seeds: np.ndarray) -> np.ndarray:
        """bool[S, |E*|]: the strict-local-minimum matching per trial seed."""
        z = family.evaluate_batch(seeds, eids)
        key = z * stride + eids_u64[None, :]
        node_min = node_min_fn(key, maxkey)
        return (key == node_min[:, us]) & (key == node_min[:, vs])

    def batch_objective(seeds: np.ndarray) -> np.ndarray:
        matched = matched_masks(seeds)
        # sum of d(v) over matched B endpoints (keys are unique, so each
        # node is matched by at most one edge).
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
    matched_eids = eids[matched]
    info = LubyStepInfo(
        selection=sel,
        target=target,
        seed_bits=family.seed_bits,
        family_size=family.size,
    )
    return matched_eids, info


# ---------------------------------------------------------------------- #
# MIS (Section 4.3)
# ---------------------------------------------------------------------- #


def luby_mis_step(
    g: Graph,
    q_prime_mask: np.ndarray,
    good: GoodNodesMIS,
    params: Params,
    ctx: MPCContext,
    fidelity: list[str],
) -> tuple[np.ndarray, LubyStepInfo]:
    """Pick an independent set ``I ⊆ Q'`` with covered weight ``>= target``.

    Returns a bool[n] mask for ``I`` and step info.
    """
    q_mask = np.asarray(q_prime_mask, dtype=bool)
    q_ids = np.nonzero(q_mask)[0].astype(np.int64)
    if q_ids.size == 0:
        raise ValueError("luby_mis_step requires a non-empty Q'")
    deg = g.degrees().astype(np.float64)

    # Q'-internal edges (both endpoints in Q'): the only conflicts for I.
    internal = q_mask[g.edges_u] & q_mask[g.edges_v]
    iu = g.edges_u[internal]
    iv = g.edges_v[internal]

    # N_v: up to chunk = n^{4 delta} Q'-neighbours per B-node.
    chunk = params.chunk_size(g.n)
    groups_b, units_b = _arcs_b_to_q(g, good.b_mask, q_mask)
    nb_groups, nb_units = first_k_arcs(groups_b, units_b, chunk)

    # Space accounting: machine x_v holds N_v and its Q'-neighbourhoods.
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

    family = _choose_z_family(g.n, params)
    stride = np.uint64(g.n + 1)
    if family.range * (g.n + 1) >= 2**62:
        raise ValueError("key space too large; reduce n or field size")
    maxkey = np.uint64(2**63 - 1)

    w_b = deg  # objective weights d(v)
    q_u64 = q_ids.astype(np.uint64)

    # Q'-internal adjacency (both orientations) sorted by node, for the
    # per-node neighbour-min; N_v arcs sorted by B-node, for the per-node
    # "any neighbour joined I" flag.  Both become 2-D reduceat calls.
    adj_nodes = np.concatenate([iu, iv])
    adj_nbrs = np.concatenate([iv, iu])
    adj_order, adj_indptr = group_order_indptr(adj_nodes, g.n)
    nbr_min_fn = segment_min_block_fn(adj_nbrs[adj_order], adj_indptr, g.n)
    nb_order, nb_indptr = group_order_indptr(nb_groups, g.n)
    nb_any_fn = segment_any_block_fn(nb_units[nb_order], nb_indptr, g.n)

    def compute_i_masks(seeds: np.ndarray) -> np.ndarray:
        """bool[S, n]: the candidate independent set per trial seed."""
        z = family.evaluate_batch(seeds, q_ids)
        key_full = np.full((z.shape[0], g.n), maxkey, dtype=np.uint64)
        key_full[:, q_ids] = z * stride + q_u64[None, :]
        nbr_min = nbr_min_fn(key_full, maxkey)
        i_mask = np.zeros(key_full.shape, dtype=bool)
        i_mask[:, q_ids] = key_full[:, q_ids] < nbr_min[:, q_ids]
        return i_mask

    def batch_objective(seeds: np.ndarray) -> np.ndarray:
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
        selection=sel,
        target=target,
        seed_bits=family.seed_bits,
        family_size=family.size,
    )
    return i_mask, info


def _arcs_b_to_q(g: Graph, b_mask: np.ndarray, q_mask: np.ndarray):
    """Arcs (v in B) -> (u in Q') over both edge orientations."""
    eu, ev = g.edges_u, g.edges_v
    fwd = b_mask[eu] & q_mask[ev]
    bwd = b_mask[ev] & q_mask[eu]
    groups = np.concatenate([eu[fwd], ev[bwd]])
    units = np.concatenate([ev[fwd], eu[bwd]])
    return groups, units
