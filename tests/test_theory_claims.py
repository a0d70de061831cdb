"""Declared registry cost claims must stay inside the paper's theorems.

``repro.analysis.theory.THEORY_BOUNDS`` states the paper ceiling per
``(problem, model)`` envelope total; :func:`check_claim_dominance` compares
every declared claim asymptotically (``compare_growth`` on the sparse-graph
growth schedule).  This suite is the strict gate: *every* declared total
claim must be covered by a ceiling on file and must not outgrow it — a
registry edit that loosens a claim past the theorem fails here, and a new
entry with claims must ship its bound row.
"""

from __future__ import annotations

import pytest

from repro.analysis.theory import THEORY_BOUNDS, check_claim_dominance
from repro.api import REGISTRY
from repro.analysis import symbolic


def test_every_declared_total_claim_has_a_dominating_bound():
    records = check_claim_dominance()
    assert records, "registry declares no total claims? sweep wiring broken"
    uncovered = [r for r in records if r["ok"] is None]
    assert not uncovered, (
        "claims with no theorem ceiling on file (add a THEORY_BOUNDS row): "
        + ", ".join(f"{r['problem']}/{r['model']}:{r['metric']}" for r in uncovered)
    )
    violated = [r for r in records if not r["ok"]]
    assert not violated, (
        "claims that outgrow their paper ceiling: "
        + ", ".join(
            f"{r['problem']}/{r['model']}:{r['metric']} "
            f"(claim {r['claim']} vs bound {r['bound']})"
            for r in violated
        )
    )


def test_bounds_table_keys_exist_in_registry():
    """A THEORY_BOUNDS row for a nonexistent entry is a stale declaration."""
    known = {(e.problem, e.model) for e in REGISTRY.entries()}
    stale = [k for k in THEORY_BOUNDS if k not in known]
    assert not stale, f"THEORY_BOUNDS rows without a registry entry: {stale}"


def test_bounds_parse_in_the_symbolic_vocabulary():
    for key, metrics in THEORY_BOUNDS.items():
        for metric, bound in metrics.items():
            expr = symbolic.parse_expr(bound)  # raises on unknown symbols
            assert symbolic.compare_growth(expr, expr) == "eq", (key, metric)


def test_dominance_detects_a_blown_up_claim():
    """The comparator must actually flag a claim past its ceiling."""
    assert symbolic.compare_growth("n * log(n)", "log(n)") == "gt"
    assert symbolic.compare_growth("log(delta)", "log(delta) + loglog(n)") in (
        "lt",
        "eq",
    )


@pytest.mark.parametrize(
    "slow,fast",
    [("loglog(n)", "log(n)"), ("log(n)", "n"), ("n", "n * log(n)")],
)
def test_dominance_order_sorts_by_growth(slow, fast):
    assert symbolic.compare_growth(slow, fast) == "lt"
    assert symbolic.compare_growth(fast, slow) == "gt"
