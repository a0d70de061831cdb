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
lower ids and never breaks matching/independence).  Each step fixes its seed
with the one scan of :mod:`repro.derand.strategies`, against the lemma's
bound times ``target_safety``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..derand.strategies import SeedSelection
from ..graphs.graph import Graph
from ..graphs.kernels import SegmentTable, arcs_toward, group_order_indptr
from ..hashing.families import make_product_family
from ..models.phase import EdgePhase, NodePhase
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

    family = make_product_family(max(g.m, 2), k=2, min_q=params.min_q)
    # Local-minimum keys z * (m + 1) + edge_id must not wrap.
    if family.range * (g.m + 1) >= 2**62:
        raise ValueError("key space too large; reduce m or field size")
    luby = EdgePhase(g, family, eids)
    b_u = good.b_mask[us]
    b_v = good.b_mask[vs]
    w_u = deg[us]
    w_v = deg[vs]

    def objective(matched: np.ndarray) -> np.ndarray:
        # sum of d(v) over matched B endpoints (keys are unique, so each
        # node is matched by at most one edge).
        return (
            np.where(matched & b_u[None, :], w_u[None, :], 0.0).sum(axis=1)
            + np.where(matched & b_v[None, :], w_v[None, :], 0.0).sum(axis=1)
        )

    target = params.matching_target(good.weight_b)
    sel, matched = luby.select(
        objective, target=target, max_trials=params.max_scan_trials
    )
    ctx.charge_seed_fix(family.seed_bits, "luby_seed")
    if not sel.satisfied:
        fidelity.append(
            f"matching step: scan target {target:.2f} not met "
            f"(best {sel.value:.2f}); using best seed"
        )

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

    # N_v: up to chunk = n^{4 delta} Q'-neighbours per B-node.
    chunk = params.chunk_size(g.n)
    groups_b, units_b = arcs_toward(g, good.b_mask, q_mask)
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

    family = make_product_family(max(g.n, 2), k=2, min_q=params.min_q)
    if family.range * (g.n + 1) >= 2**62:
        raise ValueError("key space too large; reduce n or field size")
    # Minima over the Q'-internal adjacency (the only conflicts for I);
    # the objective reads the "any N_v member joined" flag over the N_v arcs.
    luby = NodePhase(g.remove_vertices(~q_mask), family, live=q_ids)
    nb_order, nb_indptr = group_order_indptr(nb_groups, g.n)
    nb_table = SegmentTable(nb_units[nb_order], nb_indptr)

    def objective(i_masks: np.ndarray) -> np.ndarray:
        sel_mask = nb_table.any(i_masks) & good.b_mask[None, :]
        return np.where(sel_mask, deg[None, :], 0.0).sum(axis=1)

    target = params.mis_target(good.weight_b)
    sel, i_mask = luby.select(
        objective, target=target, max_trials=params.max_scan_trials
    )
    ctx.charge_seed_fix(family.seed_bits, "luby_seed")
    if not sel.satisfied:
        fidelity.append(
            f"MIS step: scan target {target:.2f} not met "
            f"(best {sel.value:.2f}); using best seed"
        )

    info = LubyStepInfo(
        selection=sel,
        target=target,
        seed_bits=family.seed_bits,
        family_size=family.size,
    )
    return i_mask, info
