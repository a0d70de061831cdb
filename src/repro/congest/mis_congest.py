"""Deterministic MIS in the CONGEST model (extension of the paper's method).

Carries the derandomized-Luby machinery into CONGEST with honest round
accounting: each Luby phase needs (a) one local exchange of z-values
(1 round -- z-values are O(log n)-bit and travel one edge), (b) a global
seed selection.  Two seed-selection pipelines are provided:

* ``voting`` -- bit-by-bit conditional-expectation voting over a BFS tree:
  ``2 D`` rounds per seed bit, i.e. ``Theta(D log n)`` per phase and
  ``Theta(D log^2 n)`` total.  This is the direct port of the classical
  technique ([15]-style) to CONGEST.
* ``color-compressed`` -- first compute a distance-2 coloring (Linial on
  ``G^2``, simulable in CONGEST in ``O(log* n)`` rounds for bounded
  degree), then hash *colors*: the seed shrinks to ``O(log Delta)`` bits,
  so a phase costs ``Theta(D log Delta)`` -- the paper's Section-5 seed
  compression paying off in a third model.  This is precisely the
  "useful for the CONGEST model" extension the conclusion anticipates.

Each mode is deterministic, and ``repro.api.solve`` verifies the maximal
independent set either returns; but the two sets generally differ: the
modes hash different inputs (ids, or distance-2 colours) with different
families, so they fix different seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.coloring import distance2_coloring
from ..graphs.graph import Graph
from ..graphs.linegraph import line_graph, line_graph_ball2_sizes
from ..hashing.families import make_color_family, make_product_family
from ..models.ledger import ModelSnapshot
from ..models.phase import NodePhase
from .model import CongestContext

__all__ = ["CongestMISResult", "congest_maximal_matching", "congest_mis"]


@dataclass(frozen=True)
class CongestMISResult:
    """Outcome of a CONGEST MIS run."""

    independent_set: np.ndarray
    phases: int
    rounds: int
    bfs_depth: int
    seed_bits_per_phase: int
    mode: str
    edge_trace: tuple[int, ...]
    snapshot: ModelSnapshot | None = None


def _check_mode(mode: str) -> None:
    if mode not in ("voting", "color-compressed"):
        raise ValueError("mode must be 'voting' or 'color-compressed'")


def congest_mis(
    graph: Graph,
    *,
    mode: str = "color-compressed",
    max_scan_trials: int = 512,
    max_phases: int = 10_000,
    pipeline_seed_fix: bool = False,
    ball2_sizes: np.ndarray | None = None,
) -> CongestMISResult:
    """Deterministic MIS with CONGEST round accounting.

    ``mode`` is ``"voting"`` (id-based seeds, Theta(D log n)/phase) or
    ``"color-compressed"`` (Section-5 style color seeds,
    Theta(D log Delta)/phase after O(log* n) preprocessing).
    ``pipeline_seed_fix`` bills the BFS-pipelined ``O(D + seed_bits)``
    seed broadcast instead of the sequential ``2 D seed_bits`` charge
    (ablation).  ``ball2_sizes`` are ``graph``'s r = 2 ball sizes for the
    distance-2 coloring, counted there unless the caller has them.

    .. note:: Prefer ``repro.api.solve(SolveRequest(problem="mis",
       model="congest", graph=g))``; this entry point stays as a
       bit-identical thin path for existing callers.
    """
    _check_mode(mode)
    ctx = CongestContext(graph, pipeline_seed_fix=pipeline_seed_fix)
    n = graph.n

    colors = None
    if mode == "color-compressed" and graph.m > 0:
        coloring = distance2_coloring(graph, sizes=ball2_sizes)
        ctx.charge("coloring", max(1, coloring.iterations))
        family = make_color_family(coloring.num_colors)
        colors = coloring.colors.astype(np.int64)
    else:
        family = make_product_family(max(n, 2), k=2)

    in_mis = np.zeros(n, dtype=bool)
    removed = np.zeros(n, dtype=bool)
    g = graph
    trace: list[int] = []
    phase = 0

    while g.m > 0:
        phase += 1
        if phase > max_phases:
            raise RuntimeError("CONGEST MIS failed to converge")
        trace.append(g.m)
        iso = g.isolated_mask() & ~removed
        in_mis |= iso
        removed |= iso

        luby = NodePhase(g, family, colors=colors)
        eu, ev = g.edges_u, g.edges_v

        def objective(i_masks: np.ndarray) -> np.ndarray:
            kill = luby.kill(i_masks)
            return (kill[:, eu] | kill[:, ev]).sum(axis=1).astype(np.float64)

        # Phase-disjoint offsets; the scan wraps around the family.
        _, i_mask = luby.select(
            objective,
            target=g.m / 120.0,  # conservative Luby-constant target
            max_trials=max_scan_trials,
            start=1 + (phase - 1) * max_scan_trials,
        )
        kill = luby.winner_kill()
        # Drop this phase before the residual graph and the next phase.
        del luby, objective
        in_mis |= i_mask
        removed |= kill
        g = g.remove_vertices(kill)

        # Round bill: one local z-exchange + the tree-based seed fix.
        ctx.charge_local("phase_local")
        ctx.charge_seed_fix(family.seed_bits, "phase_seed")

    in_mis |= ~removed
    return CongestMISResult(
        independent_set=np.nonzero(in_mis)[0].astype(np.int64),
        phases=phase,
        rounds=ctx.rounds,
        bfs_depth=ctx.depth,
        seed_bits_per_phase=family.seed_bits,
        mode=mode,
        edge_trace=tuple(trace),
        snapshot=ctx.model_snapshot(),
    )


def congest_maximal_matching(
    graph: Graph,
    *,
    mode: str = "color-compressed",
    max_scan_trials: int = 512,
    pipeline_seed_fix: bool = False,
) -> CongestMISResult:
    """Maximal matching in CONGEST via MIS on the line graph.

    In CONGEST the line graph is simulable locally (each node knows its
    incident edges; an edge's "node" is simulated by its lower-id endpoint),
    so the round bill carries over with O(1) overhead per phase.  The
    ``independent_set`` of the returned record holds *edge ids* of ``graph``.
    """
    _check_mode(mode)
    if graph.m == 0:
        return CongestMISResult(
            independent_set=np.empty(0, dtype=np.int64),
            phases=0,
            rounds=0,
            bfs_depth=0,
            seed_bits_per_phase=0,
            mode=mode,
            edge_trace=tuple(),
            snapshot=CongestContext(graph).model_snapshot(),
        )
    lg = line_graph(graph)
    return congest_mis(
        lg,
        mode=mode,
        max_scan_trials=max_scan_trials,
        pipeline_seed_fix=pipeline_seed_fix,
        ball2_sizes=(
            line_graph_ball2_sizes(graph) if mode == "color-compressed" else None
        ),
    )
