"""Deterministic CONGESTED CLIQUE MIS / matching in O(log Delta) rounds
(Corollary 2), plus the Censor-Hillel-Parter-Schwartzman-style voting
baseline it improves on (O(log Delta log n) rounds).

Structure of the O(log Delta) algorithm:

* **Phases**: derandomized Luby steps (pairwise z-values over node ids,
  deterministic seed scan against the Lemma-13/21-style progress target).
  In CONGESTED CLIQUE each node can learn its 2-hop relevant information in
  O(1) rounds (Lenzen routing; cf. [15]'s fast path), so a phase costs O(1)
  rounds.  Each phase removes a constant fraction of edges.
* **Finish**: once ``|E| <= n``, collect the whole remaining graph onto one
  node with Lenzen routing and finish locally in O(1) rounds -- the step
  that is *impossible* in sublinear-space MPC and the reason the paper
  needed sparsification there (see the "Comparison with [15]" discussion).

Since ``|E_0| <= n Delta / 2``, constant-factor decay reaches ``|E| <= n``
in ``O(log Delta)`` phases.

The CHPS-style baseline runs the *same* phases but derandomizes each
O(log n)-bit seed bit-by-bit with a voting round per bit (their general
path), costing ``Theta(log n)`` rounds per phase -- total
``O(log Delta log n)``.  T8 regenerates exactly this comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.greedy import greedy_matching
from ..graphs.graph import Graph
from ..hashing.families import make_product_family
from ..models.ledger import ModelSnapshot
from ..models.phase import EdgePhase, NodePhase, a_set
from .model import CongestedCliqueContext

__all__ = ["CCResult", "cc_maximal_matching", "cc_mis"]


@dataclass(frozen=True)
class CCResult:
    """Outcome of a CONGESTED CLIQUE run."""

    solution: np.ndarray  # node ids (MIS) or (k, 2) pairs (matching)
    phases: int
    rounds: int
    edge_trace: tuple[int, ...]
    algorithm: str
    collected_remainder_edges: int
    snapshot: ModelSnapshot | None = None


def cc_mis(
    graph: Graph,
    *,
    charge_mode: str = "ours",
    max_scan_trials: int = 512,
    max_phases: int = 10_000,
) -> CCResult:
    """Deterministic MIS in CONGESTED CLIQUE.

    ``charge_mode='ours'`` charges O(1) rounds per phase (Corollary 2);
    ``charge_mode='chps'`` charges ``seed_bits`` rounds per phase (the
    bit-by-bit voting derandomization of [15]'s general path).

    .. note:: Prefer ``repro.api.solve(SolveRequest(problem="mis",
       model="cclique", graph=g))``; this entry point stays as a
       bit-identical thin path for existing callers.
    """
    if charge_mode not in ("ours", "chps"):
        raise ValueError("charge_mode must be 'ours' or 'chps'")
    ctx = CongestedCliqueContext(n=graph.n)
    family = make_product_family(max(graph.n, 2), k=2)

    in_mis = np.zeros(graph.n, dtype=bool)
    removed = np.zeros(graph.n, dtype=bool)
    g = graph
    trace: list[int] = []
    phase = 0

    while g.m > graph.n:
        phase += 1
        if phase > max_phases:
            raise RuntimeError("CC MIS failed to converge")
        trace.append(g.m)
        iso = g.isolated_mask() & ~removed
        in_mis |= iso
        removed |= iso

        a_mask, w_a = a_set(g)
        deg = g.degrees().astype(np.float64)
        luby = NodePhase(g, family)

        def objective(i_masks: np.ndarray) -> np.ndarray:
            kill = luby.kill(i_masks)
            return np.where(kill & a_mask[None, :], deg[None, :], 0.0).sum(axis=1)

        # Conservative progress target (Cor. 15 + Lemma 21 constants);
        # phase-disjoint scan offsets into an order that wraps around the
        # family, so deep phases still cover every seed before giving up.
        _, i_mask = luby.select(
            objective,
            target=0.01 * w_a,
            max_trials=max_scan_trials,
            start=1 + (phase - 1) * max_scan_trials,
        )
        kill = luby.kill(i_mask[None, :])[0]
        in_mis |= i_mask
        removed |= kill
        g = g.remove_vertices(kill)

        if charge_mode == "ours":
            ctx.charge("phase", 1)  # 2-hop-informed O(1)-round derand [15]
            ctx.charge_broadcast("phase")
        else:
            ctx.charge("phase_voting", family.seed_bits)  # 1 round per bit
            ctx.charge_broadcast("phase_voting")

    # Remainder: |E| <= n fits one node; collect with Lenzen, solve locally.
    remainder_edges = g.m
    if g.m > 0:
        trace.append(g.m)
        ctx.charge_collect_graph(g.m, "collect_remainder")
        # Greedy MIS over the undecided vertices of the remainder graph
        # (decided vertices are isolated in g but must not re-enter).
        for v in np.nonzero(~removed)[0].tolist():
            if removed[v]:
                continue
            in_mis[v] = True
            removed[v] = True
            nbrs = g.neighbors(v)
            removed[nbrs] = True
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


def cc_maximal_matching(
    graph: Graph,
    *,
    charge_mode: str = "ours",
    max_scan_trials: int = 512,
    max_phases: int = 10_000,
) -> CCResult:
    """Deterministic maximal matching in CONGESTED CLIQUE (Corollary 2)."""
    if charge_mode not in ("ours", "chps"):
        raise ValueError("charge_mode must be 'ours' or 'chps'")
    ctx = CongestedCliqueContext(n=graph.n)
    pairs: list[np.ndarray] = []
    g = graph
    trace: list[int] = []
    phase = 0

    while g.m > graph.n:
        phase += 1
        if phase > max_phases:
            raise RuntimeError("CC matching failed to converge")
        trace.append(g.m)
        family = make_product_family(max(g.m, 2), k=2)
        deg = g.degrees().astype(np.float64)
        eu, ev = g.edges_u, g.edges_v
        w_u, w_v = deg[eu], deg[ev]
        luby = EdgePhase(g, family)

        def objective(mm: np.ndarray) -> np.ndarray:
            return (
                np.where(mm, w_u[None, :], 0.0).sum(axis=1)
                + np.where(mm, w_v[None, :], 0.0).sum(axis=1)
            )

        _, mm = luby.select(
            objective,
            target=float(g.m) / 109.0,
            max_trials=max_scan_trials,
            start=1 + (phase - 1) * max_scan_trials,
        )
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
