"""Check measured cost series against declared symbolic cost models.

Each registry entry declares the paper's claims as a symbolic cost model
(:attr:`~repro.api.registry.SolverEntry.cost_model`: sympy expressions
over the shared vocabulary of :mod:`repro.analysis.symbolic`, per envelope
total *and* per ledger charge category).  This module runs a sweep of
solves over growing inputs, extracts the measured series — endpoint
totals always; the per-category per-charge streams the tracer records
when ``symbolic=True`` — and checks each against its declared
expression by one-parameter least squares through the origin::

    c* = argmin_c  sum_i (y_i - c * s(row_i))^2  =  sum y*s / sum s^2

plus an asymptotic-dominance fallback (claims are O(.) upper bounds; a
series growing *slower* than its claim conforms even when the constant
fit has nothing to explain).  A fit is *tight* when ``R^2 >= 0.8`` or
the normalized RMS residual is ``<= 15%`` of the series mean — the
latter because slow-growing cost series (round counts under a ``log
log`` bound barely move over feasible sweep sizes) have almost no
variance for mean-centered ``R^2`` to explain, yet the one-constant fit
tracks them within a round or two.  Deliberately loose: with one free
constant over a handful of sizes this is a smoke alarm for blown-up
asymptotics (a ``Theta(n)`` round count pretending to be ``O(log n)``
fails both criteria), not a proof.  The fit itself is
:func:`repro.analysis.symbolic.fit_constant`.
"""

from __future__ import annotations

import math

from ..graphs.generators import gnp_random_graph
from ..obs.sinks import summarize
from ..obs.trace import trace_capture
from . import symbolic as sym

__all__ = [
    "conformance_matrix",
    "conformance_report",
    "evaluate_entry",
    "run_sweep",
]


def _log(x: float) -> float:
    return math.log(max(float(x), 2.0))


def run_sweep(
    problem: str,
    model: str,
    *,
    sizes: list[int] | None = None,
    avg_deg: float = 6.0,
    seed: int = 7,
    reps: int = 3,
    capture_charges: bool = False,
) -> list[dict]:
    """Solve ``problem`` on ``model`` over growing G(n, p) inputs.

    Returns one row per size with the symbol values the cost expressions
    read (``n``, ``m``, ``delta``, ``depth``, plus whatever the solve's
    :meth:`~repro.models.ledger.ModelSnapshot.symbol_row` pins down —
    ``gamma``, ``seed_bits``, ``machines``, ``space``) and the measured
    costs (``rounds``, ``words_moved``, ``wall_time``).  ``p = avg_deg /
    n`` keeps the graphs sparse so Delta grows slowly — the regime where
    ``log Delta`` and ``log n`` series are actually distinguishable.

    With ``capture_charges`` each solve runs under
    :func:`~repro.obs.trace.trace_capture` and the row additionally
    carries ``charges``: per ledger category, the mean rounds/words that
    category was charged — the per-phase series the symbolic checker
    verifies.

    Each size is measured over ``reps`` independent graphs and the row
    reports per-replicate means: asymptotic claims bound the *expected*
    cost, and single draws carry instance effects (a BFS tree one level
    deeper, one extra peeling phase) that jump the constant by integer
    factors and swamp a small sweep.
    """
    from ..api import SolveRequest, solve

    reps = max(int(reps), 1)
    rows: list[dict] = []
    for i, n in enumerate(sizes or [64, 128, 256, 512]):
        acc = {
            k: 0.0
            for k in (
                "m",
                "delta",
                "depth",
                "rounds",
                "words_moved",
                "wall_time",
            )
        }
        sym_acc: dict[str, float] = {}
        charge_acc: dict[str, dict[str, float]] = {}
        for rep in range(reps):
            g = gnp_random_graph(
                n,
                min(1.0, avg_deg / max(n, 1)),
                seed=seed + i + 101 * rep,
            )
            request = SolveRequest(problem=problem, model=model, graph=g)
            if capture_charges:
                with trace_capture() as buf:
                    res = solve(request)
                for cat, bill in summarize(buf.spans)["charges"].items():
                    row = charge_acc.setdefault(cat, {"rounds": 0.0, "words": 0.0})
                    row["rounds"] += bill["rounds"]
                    row["words"] += bill["words"]
            else:
                res = solve(request)
            raw = getattr(res, "raw", None)
            depth = int(getattr(raw, "bfs_depth", 0)) or math.ceil(_log(n))
            acc["m"] += g.m
            acc["delta"] += max(g.max_degree(), 1)
            acc["depth"] += depth
            acc["rounds"] += res.rounds
            acc["words_moved"] += res.words_moved
            acc["wall_time"] += res.wall_time
            snapshot = getattr(res, "snapshot", None)
            if snapshot is not None:
                for key, value in snapshot.symbol_row().items():
                    sym_acc[key] = sym_acc.get(key, 0.0) + float(value)
        row = {
            "n": n,
            "reps": reps,
            **{k: v / reps for k, v in sym_acc.items()},
            **{k: v / reps for k, v in acc.items()},
        }
        if capture_charges:
            row["charges"] = {
                cat: {k: v / reps for k, v in bill.items()}
                for cat, bill in sorted(charge_acc.items())
            }
        rows.append(row)
    return rows


#: Fit record emitted for an entry that declares no cost model at all —
#: the gap is *visible* in reports instead of an empty fits list.
_NO_CLAIMS = {
    "metric": None,
    "category": None,
    "ok": None,
    "status": "no claims declared",
}


def evaluate_entry(entry, rows: list[dict], *, symbolic: bool = False) -> dict:
    """Check every claim ``entry`` declares against measured ``rows``.

    Always checks the envelope-total claims (``rounds`` /
    ``words_moved``); with ``symbolic=True`` additionally checks each
    declared charge category's per-phase stream, which requires rows
    swept with ``capture_charges=True``.  Returns ``{"fits",
    "conformant", "notes", "refs"}`` where each fit carries ``metric``,
    ``category`` (``None`` for totals), the claim, and the combined
    verdict from :func:`repro.analysis.symbolic.check_series`.

    Gaps stay visible: an entry with no ``cost_model`` yields one
    explicit *no claims declared* row; a claimed category the sweep
    never charged, or a claim whose symbols the rows cannot supply,
    yields ``ok: None`` with a ``status`` explaining why.  ``conformant``
    aggregates only decidable fits (``None`` when nothing was decidable).
    """
    model = sym.parse_cost_model(getattr(entry, "cost_model", None))
    fits: list[dict] = []
    notes = model.notes if model else ""
    refs = list(model.refs) if model else []
    if model is None or (not model.totals and not model.phases):
        fits.append(dict(_NO_CLAIMS))
    else:
        for metric, expr in model.totals.items():
            values = [float(r.get(metric, 0.0)) for r in rows]
            fits.append(
                {"metric": metric, "category": None,
                 **sym.check_series(rows, values, expr)}
            )
        if symbolic:
            for category, metrics in model.phases.items():
                for metric, expr in metrics.items():
                    values = [
                        float(
                            (r.get("charges") or {})
                            .get(category, {})
                            .get(metric, 0.0)
                        )
                        for r in rows
                    ]
                    if not any(values):
                        fits.append(
                            {
                                "metric": metric,
                                "category": category,
                                "expr": str(expr),
                                "claim": sym.render_claim(expr),
                                "ok": None,
                                "status": "category never charged in this sweep",
                            }
                        )
                        continue
                    fits.append(
                        {"metric": metric, "category": category,
                         **sym.check_series(rows, values, expr)}
                    )
    decided = [f for f in fits if f.get("ok") is not None]
    return {
        "fits": fits,
        "conformant": all(f["ok"] for f in decided) if decided else None,
        "notes": notes,
        "refs": refs,
    }


def conformance_report(
    problem: str,
    model: str,
    *,
    sizes: list[int] | None = None,
    avg_deg: float = 6.0,
    seed: int = 7,
    reps: int = 3,
    symbolic: bool = False,
) -> dict:
    """Sweep + check every claim the registry entry declares.

    ``symbolic=True`` extends the check from endpoint totals to the
    per-category charge streams the tracer records (the solves run under
    :func:`~repro.obs.trace.trace_capture`).  Entries with no declared
    ``cost_model`` report one explicit *no claims declared* fit and
    ``conformant: None`` (nothing claimed, nothing checked — but the gap
    is on record).
    """
    from ..api import REGISTRY

    entry = REGISTRY.get(problem, model)
    rows = run_sweep(
        problem,
        model,
        sizes=sizes,
        avg_deg=avg_deg,
        seed=seed,
        reps=reps,
        capture_charges=symbolic,
    )
    return {
        "problem": problem,
        "model": model,
        "rows": rows,
        **evaluate_entry(entry, rows, symbolic=symbolic),
    }


def conformance_matrix(
    *,
    sizes: list[int] | None = None,
    avg_deg: float = 6.0,
    seed: int = 7,
    reps: int = 3,
    symbolic: bool = False,
) -> list[dict]:
    """:func:`conformance_report` for *every* registry entry.

    One report per ``(problem, model)`` pair in stable registry order —
    the full claims matrix, so one invocation answers "does anything we
    ship violate a cost claim".  A report's ``conformant`` stays ``None``
    for entries with nothing decidable (no claims declared); callers that
    gate (the CLI's ``--all``) fail only on an explicit ``False``.
    """
    from ..api import REGISTRY

    return [
        conformance_report(
            entry.problem,
            entry.model,
            sizes=sizes,
            avg_deg=avg_deg,
            seed=seed,
            reps=reps,
            symbolic=symbolic,
        )
        for entry in REGISTRY.entries()
    ]
