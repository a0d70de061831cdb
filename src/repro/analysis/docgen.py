"""Generate the theory/registry docs from the registry's own declarations.

``docs/THEORY.md`` and ``docs/REGISTRY.md`` are *derived artifacts*: every
cost claim, capability flag and caveat they show is read from
:data:`repro.api.REGISTRY` at generation time, so the documents cannot say
anything the code does not declare.  ``repro docs`` writes them;
``repro docs --check`` re-renders and byte-compares, and CI runs the check
so a registry change that forgets to regenerate fails the build.

Rendering is deterministic by construction — registry iteration is sorted,
sympy's printer is stable, and no timestamps or environment details are
embedded — so "regenerate and diff" is a meaningful freshness test.
"""

from __future__ import annotations

from pathlib import Path

from . import symbolic
from .theory import check_claim_dominance

__all__ = [
    "GENERATED_FILES",
    "check_docs",
    "registry_markdown",
    "theory_markdown",
    "write_docs",
]

_HEADER = (
    "<!-- Generated by `python -m repro docs`. Do not edit by hand: "
    "regenerate with `PYTHONPATH=src python -m repro docs` "
    "(CI fails on drift via `repro docs --check`). -->"
)


def _entries():
    from ..api import REGISTRY

    return REGISTRY.entries()


def _parsed_model(entry):
    return symbolic.parse_cost_model(entry.cost_model)


def theory_markdown() -> str:
    """Render every entry's symbolic cost model as ``docs/THEORY.md``."""
    lines = [
        _HEADER,
        "",
        "# Theory ledger: declared cost models",
        "",
        "Every `(problem, model)` registry entry declares its asymptotic "
        "costs as symbolic expressions (`SolverEntry.cost_model`) over a "
        "shared vocabulary, per envelope total and per ledger charge "
        "category.  `repro trace conformance --symbolic` checks measured "
        "sweeps — including the per-charge span-event streams the tracer "
        "records — against exactly these claims; this page *is* those "
        "declarations, rendered.",
        "",
        "All claims are O(·) upper bounds. The checker accepts a series "
        "when the one-constant fit is tight (R² ≥ 0.8 or NRMSE ≤ 0.15) "
        "**or** the series stays dominated by the claim across the sweep; "
        "a series that outgrows its claim fails.",
        "",
        "## Symbol vocabulary",
        "",
        "| symbol | meaning |",
        "|--------|---------|",
    ]
    for name in symbolic.SYMBOL_NAMES:
        lines.append(f"| `{name}` | {symbolic.SYMBOL_DOC[name]} |")
    lines += [
        "",
        "`log` is clamped (`log(max(x, 2))`) and `loglog(x)` abbreviates "
        "`log(log(x))`, matching the checker's evaluation.",
        "",
        "## Declared claims by entry",
    ]
    for entry in _entries():
        model = _parsed_model(entry)
        lines += ["", f"### `{entry.problem}` / `{entry.model}`", ""]
        if entry.description:
            lines += [entry.description, ""]
        if model is None or (not model.totals and not model.phases):
            lines += [
                "**No claims declared.** Conformance reports this gap "
                "explicitly rather than skipping the entry.",
            ]
            continue
        lines += [
            "| scope | metric | claim |",
            "|-------|--------|-------|",
        ]
        for metric, expr in model.totals.items():
            lines.append(f"| total | `{metric}` | `O({expr})` |")
        for category, metrics in model.phases.items():
            for metric, expr in metrics.items():
                lines.append(
                    f"| charge `{category}` | `{metric}` | `O({expr})` |"
                )
        if model.refs:
            lines += ["", "Paper references: " + "; ".join(model.refs) + "."]
        if model.notes:
            lines += ["", f"> {model.notes}"]
    lines += [
        "",
        "## Checking these claims",
        "",
        "```",
        "PYTHONPATH=src python -m repro trace conformance \\",
        "    --problem mis --model congest --sizes 48,96 --reps 2 --symbolic",
        "```",
        "",
        "Totals are always checked; `--symbolic` extends the check to each "
        "declared charge category's per-phase stream (the solves run under "
        "the tracer and the `charge` span events are aggregated per "
        "category).  Closed-form constants for the paper's iteration "
        "bounds live in `repro.analysis.theory` (`mis_iteration_bound`, "
        "`matching_iteration_bound`, `lowdeg_round_bound`); the space "
        "budgets a solve enforces are `MPCContext.S` and "
        "`MPCContext.total_space_budget`.",
        "",
    ]
    return "\n".join(lines)


def _bound_verdict(entry) -> str:
    """One-cell summary of the entry's claim-vs-theorem dominance check."""
    records = check_claim_dominance(entry)
    if not records:
        return "—"
    decided = [r for r in records if r["ok"] is not None]
    if not decided:
        return "no bound on file"
    if all(r["ok"] for r in decided):
        return f"≼ bound ({len(decided)}/{len(records)})"
    bad = ", ".join(f"`{r['metric']}`" for r in decided if not r["ok"])
    return f"**EXCEEDS** ({bad})"


def registry_markdown() -> str:
    """Render the (problem × model) capability matrix as ``docs/REGISTRY.md``."""
    entries = _entries()
    problems = sorted({e.problem for e in entries})
    models = sorted({e.model for e in entries})
    covered = {(e.problem, e.model) for e in entries}

    lines = [
        _HEADER,
        "",
        "# Solver registry",
        "",
        "Every solver is a `SolverEntry` keyed `(problem, model)` in "
        "`repro.api.REGISTRY`; registering one makes it solvable by that "
        "pair everywhere a `SolveRequest` goes (`repro solve`, "
        "`repro batch`, `repro serve`), a row of the cross-model bill "
        "(`repro solve --model all`), and cost-checkable "
        "(`repro trace conformance`).",
        "",
        "## Coverage matrix",
        "",
        "| problem | " + " | ".join(models) + " |",
        "|---------|" + "|".join("---" for _ in models) + "|",
    ]
    for problem in problems:
        cells = [
            "yes" if (problem, model) in covered else "—" for model in models
        ]
        lines.append(f"| {problem} | " + " | ".join(cells) + " |")
    lines += [
        "",
        "## Entries",
        "",
        "| problem | model | capabilities | cost model | vs theory [^bound] |",
        "|---------|-------|--------------|------------|--------------------|",
    ]
    for e in entries:
        model = _parsed_model(e)
        n_claims = sum(1 for _ in model.claims()) if model else 0
        claims = f"{n_claims} claims" if n_claims else "none declared"
        lines.append(
            f"| {e.problem} | {e.model} | "
            f"{e.capabilities.flags() or '—'} | {claims} | "
            f"{_bound_verdict(e)} |"
        )
    lines += [
        "",
        "[^bound]: Machine-checked claim-vs-theorem dominance: every "
        "declared envelope-total claim is asymptotically compared "
        "(`repro.analysis.symbolic.compare_growth`) against the paper ceiling "
        "on file in `repro.analysis.theory.THEORY_BOUNDS`; `≼ bound (k/k)` "
        "means all k claims grow no faster than their theorem.  "
        "`tests/test_theory_claims.py` fails the build if any claim "
        "exceeds its bound.",
    ]
    lines += ["", "### Descriptions", ""]
    for e in entries:
        lines.append(
            f"- **{e.problem} / {e.model}** — {e.description} "
            f"(wraps `{e.legacy_entry}`)"
        )
    lines += [
        "",
        "Cost-model claims are listed in full in [THEORY.md](THEORY.md).",
        "",
    ]
    return "\n".join(lines)


#: filename -> renderer, the contract ``write_docs``/``check_docs`` share.
GENERATED_FILES = {
    "THEORY.md": theory_markdown,
    "REGISTRY.md": registry_markdown,
}


def write_docs(out_dir: str | Path = "docs") -> list[Path]:
    """Render and write every generated doc; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, render in GENERATED_FILES.items():
        path = out / name
        path.write_text(render())
        written.append(path)
    return written


def check_docs(out_dir: str | Path = "docs") -> list[str]:
    """Freshness gate: names of generated docs that are missing or stale."""
    out = Path(out_dir)
    stale = []
    for name, render in GENERATED_FILES.items():
        path = out / name
        if not path.exists() or path.read_text() != render():
            stale.append(name)
    return stale
