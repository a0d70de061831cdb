"""Built-in registry entries: every legacy solver wrapped into the envelope.

Each adapter here is deliberately *thin*: it calls the historical entry
point unchanged (so solutions, round counts and word counts are
bit-identical to direct calls — parity-tested in
``tests/test_api_facade.py``) and repackages the result into a
:class:`~repro.api.envelope.SolveResult`.  The historical entry points
remain importable as before; they are the implementation layer, the facade
is the front door.

Problem x model coverage registered on import:

=========  =========  ==========  =======  =======
problem    simulated  mpc-engine  cclique  congest
=========  =========  ==========  =======  =======
mis        yes        yes         yes      yes
matching   yes        --          yes      yes
vc         yes        --          --       --
coloring   yes        --          --       --
ruling2    yes        --          --       --
=========  =========  ==========  =======  =======
"""

from __future__ import annotations

import numpy as np

from ..cclique.mis_cc import cc_maximal_matching, cc_mis
from ..congest.mis_congest import congest_maximal_matching, congest_mis
from ..core.api import maximal_independent_set, maximal_matching, uses_lowdeg_path
from ..core.derived import (
    deterministic_coloring,
    deterministic_ruling_set,
    deterministic_vertex_cover,
    is_ruling_set,
    is_vertex_cover,
)
from ..core.params import Params
from ..graphs.graph import Graph
from ..mpc.context import MPCContext
from ..mpc.distributed_luby import distributed_luby_mis, luby_peak_words
from ..verify import verify_matching_pairs, verify_mis_nodes
from .envelope import SolveRequest, SolveResult
from .registry import SolverCapabilities, register_solver

__all__ = ["engine_space_plan"]

_SIMULATED_CAPS = SolverCapabilities(
    snapshot=True, certificate=True, force_path=True, trace_records=True
)
_DERIVED_CAPS = SolverCapabilities(certificate=True, trace_records=True)
_MODEL_CAPS = SolverCapabilities(snapshot=True, certificate=True)


# ---------------------------------------------------------------------- #
# Simulated MPC (vectorized accounting layer)
# ---------------------------------------------------------------------- #


@register_solver(
    "mis",
    "simulated",
    capabilities=_SIMULATED_CAPS,
    description="Theorem-1 MIS on the MPC accounting layer",
    legacy_entry="repro.core.api.maximal_independent_set",
    cost_model={
        "rounds": "(log(delta) + loglog(n)) / gamma**2",
        "words_moved": "m",
        "phases": {
            "stage": {"rounds": "log(delta) + loglog(n)"},
            "preprocess_gather": {"words": "m * delta"},
        },
        "refs": ("Theorem 1", "Section 4 (low-degree stages)"),
        "notes": (
            "Sparse sweeps take the low-degree path: the headline "
            "O((log Delta + log log n) / gamma^2) stage bound with the "
            "2-hop preprocessing gather billed per stage."
        ),
    },
)
def _solve_mis_simulated(
    graph: Graph, request: SolveRequest, params: Params
) -> SolveResult:
    ctx = MPCContext.for_graph(graph, params)
    res = maximal_independent_set(
        graph,
        params=params,
        force=request.force,
        paper_rule=request.paper_rule,
        ctx=ctx,
    )
    verified = bool(verify_mis_nodes(graph, res.independent_set))
    path = request.force or (
        "lowdeg"
        if uses_lowdeg_path(graph, params, paper_rule=request.paper_rule)
        else "general"
    )
    return SolveResult(
        problem="mis",
        model="simulated",
        solution=res.independent_set,
        solution_kind="nodes",
        solution_size=int(res.independent_set.size),
        verified=verified,
        certificate={"verifier": "verify_mis_nodes", "ok": verified},
        rounds=res.rounds,
        iterations=res.iterations,
        words_moved=res.words_moved,
        max_machine_words=res.max_machine_words,
        space_limit=res.space_limit,
        path=path,
        snapshot=ctx.model_snapshot(),
        raw=res,
    )


@register_solver(
    "matching",
    "simulated",
    capabilities=_SIMULATED_CAPS,
    description="Theorem-1 maximal matching on the MPC accounting layer",
    legacy_entry="repro.core.api.maximal_matching",
    cost_model={
        "words_moved": "m",
        "refs": ("Theorem 1", "Section 5 (matching via MIS machinery)"),
        "notes": (
            "No rounds claim: the measured series *falls* with n "
            "(per-machine space S = Theta(n^gamma) grows, so the "
            "simulation needs fewer passes) — a growing claim would "
            "vacuously dominate it, so none is declared.  The words "
            "series crosses a regime boundary around n=256 (small "
            "instances finish in the collect-remainder regime and "
            "undershoot the asymptotic bill), so only the coarse O(m) "
            "envelope is claimed and no per-phase claims are made."
        ),
    },
)
def _solve_matching_simulated(
    graph: Graph, request: SolveRequest, params: Params
) -> SolveResult:
    ctx = MPCContext.for_graph(graph, params)
    res = maximal_matching(
        graph,
        params=params,
        force=request.force,
        paper_rule=request.paper_rule,
        ctx=ctx,
    )
    verified = bool(verify_matching_pairs(graph, res.pairs))
    path = request.force or (
        "lowdeg"
        if uses_lowdeg_path(
            graph, params, paper_rule=request.paper_rule, for_matching=True
        )
        else "general"
    )
    return SolveResult(
        problem="matching",
        model="simulated",
        solution=res.pairs,
        solution_kind="pairs",
        solution_size=int(res.pairs.shape[0]),
        verified=verified,
        certificate={"verifier": "verify_matching_pairs", "ok": verified},
        rounds=res.rounds,
        iterations=res.iterations,
        words_moved=res.words_moved,
        max_machine_words=res.max_machine_words,
        space_limit=res.space_limit,
        path=path,
        snapshot=ctx.model_snapshot(),
        raw=res,
    )


@register_solver(
    "vc",
    "simulated",
    capabilities=_DERIVED_CAPS,
    description="2-approximate vertex cover via Theorem-1 matching",
    legacy_entry="repro.core.derived.deterministic_vertex_cover",
    cost_model={
        "words_moved": "m",
        "refs": ("Corollary 1 (2-approximate VC)",),
        "notes": (
            "Rides on the matching solver: same space-driven falling "
            "rounds series (no rounds claim) and the same words regime "
            "crossing around n=256, so only the O(m) envelope is "
            "claimed."
        ),
    },
)
def _solve_vc_simulated(
    graph: Graph, request: SolveRequest, params: Params
) -> SolveResult:
    vc = deterministic_vertex_cover(graph, params=params)
    verified = bool(is_vertex_cover(graph, vc.cover))
    stats = vc.matching
    return SolveResult(
        problem="vc",
        model="simulated",
        solution=np.asarray(vc.cover, dtype=np.int64),
        solution_kind="nodes",
        solution_size=int(vc.size),
        verified=verified,
        certificate={
            "verifier": "is_vertex_cover",
            "ok": verified,
            "lower_bound": int(vc.lower_bound()),
        },
        rounds=stats.rounds,
        iterations=stats.iterations,
        words_moved=stats.words_moved,
        max_machine_words=stats.max_machine_words,
        space_limit=stats.space_limit,
        raw=vc,
    )


@register_solver(
    "coloring",
    "simulated",
    capabilities=_DERIVED_CAPS,
    description="(Delta+1)-coloring via MIS on G x K_{Delta+1}",
    legacy_entry="repro.core.derived.deterministic_coloring",
    options=("num_colors",),
    cost_model={
        "rounds": "log(delta) + loglog(n)",
        "words_moved": "m * delta",
        "phases": {
            "stage": {"rounds": "log(delta) + loglog(n)"},
            "preprocess_gather": {"words": "m * delta"},
        },
        "refs": ("Corollary 1 ((Delta+1)-coloring)",),
        "notes": (
            "MIS on G x K_{Delta+1}: the product graph carries "
            "Theta(m * Delta) edges, which dominates the word bill."
        ),
    },
)
def _solve_coloring_simulated(
    graph: Graph, request: SolveRequest, params: Params
) -> SolveResult:
    num_colors = request.option("num_colors")
    col = deterministic_coloring(
        graph,
        params=params,
        num_colors=int(num_colors) if num_colors is not None else None,
    )
    proper = True
    if graph.m:
        proper = bool(
            np.all(col.colors[graph.edges_u] != col.colors[graph.edges_v])
        )
    verified = proper and bool(np.all(col.colors >= 0))
    stats = col.mis
    return SolveResult(
        problem="coloring",
        model="simulated",
        solution=np.asarray(col.colors, dtype=np.int64),
        solution_kind="colors",
        solution_size=int(len(set(col.colors.tolist()))),
        verified=verified,
        certificate={
            "verifier": "proper_coloring",
            "ok": verified,
            "palette": int(col.num_colors),
        },
        rounds=stats.rounds,
        iterations=stats.iterations,
        words_moved=stats.words_moved,
        max_machine_words=stats.max_machine_words,
        space_limit=stats.space_limit,
        raw=col,
    )


@register_solver(
    "ruling2",
    "simulated",
    capabilities=_DERIVED_CAPS,
    description="2-ruling set via one MIS call on G^2",
    legacy_entry="repro.core.derived.deterministic_ruling_set",
    cost_model={
        "rounds": "log(delta) + loglog(n)",
        "words_moved": "m",
        "phases": {
            "sparsify_seed": {"rounds": "seed_bits * log(delta)"},
            "sparsify_distribute": {"words": "m"},
        },
        "refs": ("Corollary 1 (2-ruling set)", "Section 3 (sparsification)"),
        "notes": (
            "One MIS call on G^2; sparse sweeps keep G^2 small enough "
            "that the general-path sparsification phases dominate."
        ),
    },
)
def _solve_ruling2_simulated(
    graph: Graph, request: SolveRequest, params: Params
) -> SolveResult:
    rs = deterministic_ruling_set(graph, params=params)
    verified = bool(is_ruling_set(graph, rs.ruling_set))
    stats = rs.mis
    return SolveResult(
        problem="ruling2",
        model="simulated",
        solution=np.asarray(rs.ruling_set, dtype=np.int64),
        solution_kind="nodes",
        solution_size=rs.size,
        verified=verified,
        certificate={
            "verifier": "is_ruling_set",
            "ok": verified,
            "square_n": int(rs.square_n),
            "square_m": int(rs.square_m),
        },
        rounds=stats.rounds,
        iterations=stats.iterations,
        words_moved=stats.words_moved,
        max_machine_words=stats.max_machine_words,
        space_limit=stats.space_limit,
        raw=rs,
    )


# ---------------------------------------------------------------------- #
# Literal MPC engine
# ---------------------------------------------------------------------- #


def engine_space_plan(graph: Graph, params: Params) -> tuple[int, int]:
    """``(machines, space)`` for an engine run at ``S = Theta(n^eps)``.

    Machine count follows the model constants (enough machines to hold the
    input).  The space is then sized, before round 1, for the peak round of
    the engine's Luby protocol (:mod:`repro.mpc.distributed_luby`) on the
    arc layout :meth:`~repro.mpc.engine.MPCEngine.load_balanced_packed`
    gives::

        S = max(ctx.S, max_h (A_h + 3 E_h + 3 Q_h + 9 N_h + 2))

    where, for machine ``h``,

    * ``A_h`` is its arcs (one word each);
    * ``E_h`` is the distinct endpoints of those arcs: its queries out and
      its answer rows (``a`` / ``ka``), 3 words each;
    * ``Q_h`` is the query rows it receives as home, one per distinct
      (holder, endpoint) pair homed on ``h``: ``q`` / ``kq`` in, their
      answers out, and at most as many ``minz`` / ``dom`` partials, 3 words
      each;
    * ``N_h`` is its homed non-isolated nodes: ``inI`` and ``killed`` rows
      (3 words each) plus the stale ``inI`` copy a later phase still holds
      until it settles the new one;
    * ``+ 2`` is the broadcast token.

    Going round by round, every round's storage, send and receive load is
    at most this (using ``N_h <= Q_h``), and phase 1's arcs are a superset
    of every later phase's, so the run never raises a model error.  The
    peak is phase 1's kill-query round, ``A + 3E + 3Q + 6N``, which the
    formula overshoots by only the stale-copy term.
    """
    ctx = MPCContext.for_graph(graph, params)
    machines = ctx.num_machines
    return machines, max(ctx.S, luby_peak_words(graph, machines))


@register_solver(
    "mis",
    "mpc-engine",
    capabilities=_MODEL_CAPS,
    description="Luby MIS executed with real messages on the MPC engine",
    legacy_entry="repro.mpc.distributed_luby.distributed_luby_mis",
    cost_model={
        "rounds": "log(n)",
        "words_moved": "m * log(n)",
        "phases": {
            "round": {"rounds": "log(n)", "words": "m * log(n)"},
        },
        "refs": ("Theorem 2 (Luby on the literal engine)",),
        "notes": (
            "O(log n) Luby phases, each a constant number of engine "
            "rounds shipping O(m) words of real messages."
        ),
    },
)
def _solve_mis_engine(
    graph: Graph, request: SolveRequest, params: Params
) -> SolveResult:
    machines, space = engine_space_plan(graph, params)
    stats: dict = {}
    mis, rounds, phases = distributed_luby_mis(
        graph, machines, space, stats_out=stats
    )
    snapshot = stats.get("snapshot")
    verified = bool(verify_mis_nodes(graph, mis))
    return SolveResult(
        problem="mis",
        model="mpc-engine",
        solution=np.asarray(mis, dtype=np.int64),
        solution_kind="nodes",
        solution_size=int(mis.size),
        verified=verified,
        certificate={"verifier": "verify_mis_nodes", "ok": verified},
        rounds=int(rounds),
        iterations=int(phases),
        words_moved=int(snapshot.words_moved) if snapshot else 0,
        max_machine_words=int(snapshot.max_words_seen) if snapshot else 0,
        space_limit=int(space),
        path="mpc-engine",
        snapshot=snapshot,
        raw=(mis, rounds, phases),
    )


# ---------------------------------------------------------------------- #
# CONGESTED CLIQUE
# ---------------------------------------------------------------------- #


@register_solver(
    "mis",
    "cclique",
    capabilities=_MODEL_CAPS,
    description="O(log Delta)-round CONGESTED CLIQUE MIS (Corollary 2)",
    legacy_entry="repro.cclique.mis_cc.cc_mis",
    options=("charge_mode",),
    cost_model={
        "rounds": "log(delta)",
        "words_moved": "n * log(delta)",
        "phases": {
            "phase": {"rounds": "log(delta)", "words": "n * log(delta)"},
            "collect_remainder": {"rounds": "1", "words": "n"},
        },
        "refs": ("Corollary 2 (O(log Delta) CONGESTED CLIQUE MIS)",),
        "notes": (
            "Per degree-halving phase: O(1) aggregate/broadcast rounds "
            "of one O(log n)-bit message per node; Lenzen routing "
            "collects the O(n)-edge remainder in O(1) rounds."
        ),
    },
)
def _solve_mis_cclique(
    graph: Graph, request: SolveRequest, params: Params
) -> SolveResult:
    cc = cc_mis(
        graph,
        charge_mode=request.option("charge_mode", "ours"),
        max_scan_trials=params.max_scan_trials,
    )
    verified = bool(verify_mis_nodes(graph, cc.solution))
    return _model_result(
        "mis",
        "cclique",
        solution=cc.solution,
        solution_kind="nodes",
        solution_size=int(cc.solution.size),
        verified=verified,
        verifier="verify_mis_nodes",
        phases=cc.phases,
        rounds=cc.rounds,
        snapshot=cc.snapshot,
        path="congested-clique",
        raw=cc,
        extra={"algorithm": cc.algorithm},
    )


@register_solver(
    "matching",
    "cclique",
    capabilities=_MODEL_CAPS,
    description="O(log Delta)-round CONGESTED CLIQUE maximal matching",
    legacy_entry="repro.cclique.mis_cc.cc_maximal_matching",
    options=("charge_mode",),
    cost_model={
        "rounds": "log(delta)",
        "words_moved": "n * log(delta)",
        "phases": {
            "phase": {"rounds": "log(delta)", "words": "n * log(delta)"},
            "collect_remainder": {"rounds": "1", "words": "n"},
        },
        "refs": ("Corollary 2 (CONGESTED CLIQUE maximal matching)",),
        "notes": (
            "Same phase structure as CLIQUE MIS, run on the matching "
            "variant of the degree-halving argument."
        ),
    },
)
def _solve_matching_cclique(
    graph: Graph, request: SolveRequest, params: Params
) -> SolveResult:
    cc = cc_maximal_matching(
        graph,
        charge_mode=request.option("charge_mode", "ours"),
        max_scan_trials=params.max_scan_trials,
    )
    verified = bool(verify_matching_pairs(graph, cc.solution))
    return _model_result(
        "matching",
        "cclique",
        solution=cc.solution,
        solution_kind="pairs",
        solution_size=int(cc.solution.shape[0]),
        verified=verified,
        verifier="verify_matching_pairs",
        phases=cc.phases,
        rounds=cc.rounds,
        snapshot=cc.snapshot,
        path="congested-clique",
        raw=cc,
        extra={"algorithm": cc.algorithm},
    )


# ---------------------------------------------------------------------- #
# CONGEST
# ---------------------------------------------------------------------- #


@register_solver(
    "mis",
    "congest",
    capabilities=_MODEL_CAPS,
    description="CONGEST MIS with BFS-tree seed broadcast accounting",
    legacy_entry="repro.congest.mis_congest.congest_mis",
    options=("mode",),
    cost_model={
        "rounds": "depth * seed_bits * log(delta)",
        "words_moved": "n * seed_bits * log(delta)",
        "phases": {
            "phase_local": {"rounds": "log(delta)", "words": "m * log(delta)"},
            "phase_seed": {
                "rounds": "depth * seed_bits * log(delta)",
                "words": "n * seed_bits * log(delta)",
            },
        },
        "refs": ("Section 6 (CONGEST extension)",),
        "notes": (
            "Per-bit conditional-expectations voting over the BFS tree: "
            "each of the O(log Delta) phases fixes a Theta(log n)-bit "
            "seed at 2*depth rounds per bit — the tree cost the paper "
            "flags as the open CONGEST bottleneck."
        ),
    },
)
def _solve_mis_congest(
    graph: Graph, request: SolveRequest, params: Params
) -> SolveResult:
    cg = congest_mis(
        graph,
        mode=request.option("mode", "color-compressed"),
        max_scan_trials=params.max_scan_trials,
        pipeline_seed_fix=params.congest_pipeline_seed_fix,
    )
    verified = bool(verify_mis_nodes(graph, cg.independent_set))
    return _model_result(
        "mis",
        "congest",
        solution=cg.independent_set,
        solution_kind="nodes",
        solution_size=int(cg.independent_set.size),
        verified=verified,
        verifier="verify_mis_nodes",
        phases=cg.phases,
        rounds=cg.rounds,
        snapshot=cg.snapshot,
        path="congest",
        raw=cg,
        extra={"mode": cg.mode, "bfs_depth": int(cg.bfs_depth)},
    )


@register_solver(
    "matching",
    "congest",
    capabilities=_MODEL_CAPS,
    description="CONGEST maximal matching via MIS on the line graph",
    legacy_entry="repro.congest.mis_congest.congest_maximal_matching",
    options=("mode",),
    cost_model={
        "rounds": "depth * seed_bits * log(delta)",
        "words_moved": "m * seed_bits * log(delta)",
        "phases": {
            "phase_seed": {"rounds": "depth * seed_bits * log(delta)"},
        },
        "refs": ("Section 6 (CONGEST extension)",),
        "notes": (
            "MIS on the line graph: the voting structure is the MIS "
            "one with m line-graph nodes, so word bills scale with m."
        ),
    },
)
def _solve_matching_congest(
    graph: Graph, request: SolveRequest, params: Params
) -> SolveResult:
    cg = congest_maximal_matching(
        graph,
        mode=request.option("mode", "color-compressed"),
        max_scan_trials=params.max_scan_trials,
        pipeline_seed_fix=params.congest_pipeline_seed_fix,
    )
    # The legacy record holds *edge ids* of the input graph (the line-graph
    # MIS); the envelope normalizes to endpoint pairs.
    if graph.m and cg.independent_set.size:
        eids = cg.independent_set
        pairs = np.stack([graph.edges_u[eids], graph.edges_v[eids]], axis=1)
    else:
        pairs = np.empty((0, 2), dtype=np.int64)
    verified = bool(verify_matching_pairs(graph, pairs))
    return _model_result(
        "matching",
        "congest",
        solution=pairs,
        solution_kind="pairs",
        solution_size=int(pairs.shape[0]),
        verified=verified,
        verifier="verify_matching_pairs",
        phases=cg.phases,
        rounds=cg.rounds,
        snapshot=cg.snapshot,
        path="congest",
        raw=cg,
        # The snapshot's graph detail describes the line graph, which is the
        # honest communication structure of the simulated run.
        extra={"mode": cg.mode, "line_graph": True},
    )


def _model_result(
    problem: str,
    model: str,
    *,
    solution: np.ndarray,
    solution_kind: str,
    solution_size: int,
    verified: bool,
    verifier: str,
    phases: int,
    rounds: int,
    snapshot,
    path: str,
    raw,
    extra: dict | None = None,
) -> SolveResult:
    """Common envelope assembly for the snapshot-carrying model solvers."""
    certificate = {"verifier": verifier, "ok": verified}
    if extra:
        certificate.update(extra)
    ceiling = snapshot.space_ceiling if snapshot else None
    return SolveResult(
        problem=problem,
        model=model,
        solution=np.asarray(solution, dtype=np.int64),
        solution_kind=solution_kind,
        solution_size=solution_size,
        verified=verified,
        certificate=certificate,
        rounds=int(rounds),
        iterations=int(phases),
        words_moved=int(snapshot.words_moved) if snapshot else 0,
        max_machine_words=int(snapshot.max_words_seen) if snapshot else 0,
        space_limit=int(ceiling) if ceiling is not None else 0,
        path=path,
        snapshot=snapshot,
        raw=raw,
    )
