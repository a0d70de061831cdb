"""Human-readable run reports from result records.

Turns a :class:`~repro.core.records.MISResult` /
:class:`~repro.core.records.MatchingResult` into a markdown-ish text report:
summary, per-iteration progress table, sparsification stage table, round
ledger breakdown, and any fidelity events.  Used by the CLI (``--report``)
and handy in notebooks; everything is derived from the records, so the
report is as deterministic as the run.

:func:`batch_report` does the same for a whole runtime batch: per-problem
aggregates (success rates, cache economics, round/wall-time distributions)
plus a per-job table, consumed by ``repro batch --report``.

:func:`cross_model_report` renders the envelopes of one input solved under
every cost model (``repro solve --model all``) — MPC, CONGESTED CLIQUE and
CONGEST side by side — as a unified round/communication table, the
comparison the paper states in prose.
"""

from __future__ import annotations

from ..core.records import MatchingResult, MISResult
from .tables import render_table

__all__ = ["batch_report", "cross_model_report", "run_report"]


def run_report(result: MISResult | MatchingResult, title: str | None = None) -> str:
    """Render a full text report for a finished run."""
    is_mis = isinstance(result, MISResult)
    kind = "MIS" if is_mis else "maximal matching"
    lines: list[str] = []
    lines.append(f"# {title or f'deterministic {kind} run report'}")
    lines.append("")

    size = (
        len(result.independent_set) if is_mis else result.pairs.shape[0]
    )
    lines.append(f"* solution size: {size}")
    lines.append(f"* iterations: {result.iterations}")
    lines.append(f"* charged MPC rounds: {result.rounds}")
    lines.append(
        f"* machine space high-water: {result.max_machine_words}"
        f"/{result.space_limit} words"
    )
    if is_mis and result.stages_compressed:
        lines.append(
            f"* Section-5 run: {result.stages_compressed} compressed stages, "
            f"{result.num_colors} colors"
        )
    lines.append("")

    if result.records:
        rows = [
            (
                rec.iteration,
                rec.edges_before,
                rec.edges_after,
                f"{rec.removed_fraction:.3f}",
                rec.i_star,
                len(rec.stages),
                f"{rec.selection_value:.1f}",
                f"{rec.selection_target:.1f}",
                rec.selection_trials,
                "y" if rec.selection_satisfied else "n",
            )
            for rec in result.records
        ]
        lines.append(
            render_table(
                "per-iteration progress",
                ["it", "|E| before", "|E| after", "removed", "i*", "stages",
                 "objective", "target", "trials", "ok"],
                rows,
            )
        )
        lines.append("")

    stage_rows = [
        (
            rec.iteration,
            s.stage,
            s.kind,
            s.items_before,
            s.items_after,
            f"{s.degree_decay_measured:.3f}",
            f"{s.degree_decay_ideal:.3f}",
            "y" if s.all_good else "n",
            s.trials,
        )
        for rec in result.records
        for s in rec.stages
    ]
    if stage_rows:
        lines.append(
            render_table(
                "sparsification stages",
                ["it", "j", "kind", "before", "after", "decay", "ideal",
                 "all good", "trials"],
                stage_rows,
            )
        )
        lines.append("")

    ledger_rows = sorted(
        (k, v) for k, v in result.rounds_by_category.items() if k != "total"
    )
    if ledger_rows:
        lines.append(render_table("round ledger", ["category", "rounds"], ledger_rows))
        lines.append("")

    if result.fidelity_events:
        lines.append("## fidelity events")
        for e in result.fidelity_events:
            lines.append(f"* {e}")
        lines.append("")

    return "\n".join(lines)


def batch_report(results, stats=None, title: str | None = None) -> str:
    """Render a batch-level report for runtime job results.

    ``results`` is an iterable of :class:`~repro.runtime.JobResult`;
    ``stats`` an optional :class:`~repro.runtime.scheduler.BatchStats`.
    (Duck-typed to keep analysis import-independent of the runtime.)
    """
    results = list(results)
    lines: list[str] = [f"# {title or 'batch run report'}", ""]

    ok = [r for r in results if r.status == "ok"]
    hits = [r for r in results if r.cache_hit]
    lines.append(f"* jobs: {len(results)} ({len(ok)} ok, {len(results) - len(ok)} failed)")
    lines.append(
        f"* cache hits: {len(hits)}/{len(results)} "
        f"({len(hits) / len(results):.0%})" if results else "* cache hits: 0/0"
    )
    if stats is not None:
        lines.append(
            f"* batch wall time: {stats.wall_time:.3f}s "
            f"({stats.jobs_per_second:.1f} jobs/s, {stats.workers} workers)"
        )
        if stats.retries_used:
            lines.append(f"* retries used: {stats.retries_used}")
    lines.append("")

    # Per-entry aggregates, keyed "problem/model".
    by_entry: dict[str, list] = {}
    for r in results:
        by_entry.setdefault(f"{r.spec.problem}/{r.spec.model}", []).append(r)
    agg_rows = []
    for entry in sorted(by_entry):
        rs = by_entry[entry]
        good = [r for r in rs if r.status == "ok"]
        mean_wall = sum(r.wall_time for r in rs) / len(rs)
        max_rounds = max((r.rounds for r in good), default=0)
        agg_rows.append(
            (
                entry,
                len(rs),
                len(good),
                sum(1 for r in rs if r.cache_hit),
                f"{mean_wall:.3f}",
                max_rounds,
            )
        )
    lines.append(
        render_table(
            "per-problem aggregates",
            ["problem/model", "jobs", "ok", "cached", "mean wall s", "max rounds"],
            agg_rows,
        )
    )
    lines.append("")

    job_rows = [
        (
            r.spec.tag or r.spec.source.label(),
            f"{r.spec.problem}/{r.spec.model}",
            r.graph_n,
            r.graph_m,
            r.status,
            "y" if r.cache_hit else "n",
            r.rounds,
            f"{r.wall_time:.3f}",
            "y" if r.verified else "n",
        )
        for r in results
    ]
    lines.append(
        render_table(
            "jobs",
            ["job", "problem/model", "n", "m", "status", "cached", "rounds",
             "wall s", "ver"],
            job_rows,
        )
    )
    lines.append("")

    failures = [r for r in results if r.status != "ok"]
    if failures:
        lines.append("## failures")
        for r in failures:
            lines.append(
                f"* {r.spec.tag or r.spec.source.label()}: "
                f"[{r.status}] {r.error_type}: {r.error_message}"
            )
        lines.append("")

    return "\n".join(lines)


def cross_model_report(results, title: str | None = None) -> str:
    """Render one input solved under several cost models as one bill.

    ``results`` are :class:`~repro.api.SolveResult` envelopes of one
    problem on one input (duck-typed to keep analysis import-independent
    of the facade), one row each.  Rounds, words moved, the space ceiling,
    the storage high-water mark and the solution size come from the
    envelope; the bandwidth ceiling and the top charge category from its
    snapshot, when it has one.
    """
    results = list(results)
    verified = all(res.verified for res in results)
    lines: list[str] = [
        f"# {title or f'cross-model {results[0].problem} report'}",
        "",
        f"* all solutions verified: {'yes' if verified else 'NO'}",
        "",
    ]
    rows = []
    for res in results:
        snap = res.snapshot
        top = max(
            ((k, v) for k, v in (snap.by_category if snap else {}).items()
             if k != "total"),
            key=lambda kv: kv[1],
            default=None,
        )
        bandwidth = snap.bandwidth_ceiling if snap else None
        rows.append(
            (
                res.model,
                res.rounds,
                res.words_moved or "-",
                res.space_limit or "-",
                bandwidth if bandwidth is not None else "-",
                res.max_machine_words or "-",
                res.solution_size,
                f"{top[0]} ({top[1]})" if top else "-",
            )
        )
    lines.append(
        render_table(
            "round / communication bill per model",
            ["model", "rounds", "words moved", "space ceil", "bw ceil",
             "max words", "|solution|", "top category"],
            rows,
        )
    )
    lines.append("")
    return "\n".join(lines)
