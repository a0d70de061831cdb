"""Closed-form theory bounds from the paper, used by benches and tests.

Each function instantiates a bound with the explicit constants the paper
derives, so measured quantities can be reported as "measured / bound" ratios
(the reproduction's analogue of matching a table's numbers).

:data:`THEORY_BOUNDS` states the same theorems symbolically — per
``(problem, model)`` registry entry, the paper's asymptotic ceiling for
each envelope total, in the expression vocabulary of
:mod:`repro.analysis.symbolic`.  :func:`check_claim_dominance` machine-checks
every *declared* registry claim against its ceiling via the asymptotic
comparator (``claim ≼ bound``, i.e. :func:`~repro.analysis.symbolic.compare_growth`
returns ``"lt"`` or ``"eq"`` on the sparse-graph growth schedule) — so a
registry edit that quietly loosens a claim past what the paper proves fails
the suite, and ``repro docs`` renders the verdict as a footnote column.
"""

from __future__ import annotations

import math

from . import symbolic

__all__ = [
    "THEORY_BOUNDS",
    "check_claim_dominance",
    "lowdeg_round_bound",
    "matching_iteration_bound",
    "mis_iteration_bound",
    "seed_bits_colors",
    "seed_bits_ids",
]


def matching_iteration_bound(m: int, delta: float) -> float:
    """Section 3.4: iterations ``<= log_{1/(1 - delta/536)} |E|``.

    Each matching iteration removes at least ``delta |E| / 536`` edges.
    """
    if m <= 1:
        return 1.0
    rate = 1.0 - delta / 536.0
    return math.log(m) / -math.log(rate)


def mis_iteration_bound(m: int, delta: float) -> float:
    """Section 4.4: iterations ``<= log_{1/(1 - delta^2/400)} |E|``."""
    if m <= 1:
        return 1.0
    rate = 1.0 - delta * delta / 400.0
    return math.log(m) / -math.log(rate)


def lowdeg_round_bound(
    n: int, max_degree: int, c_stage: float = 4.0, c_pre: float = 4.0
) -> float:
    """Theorem 1 shape: ``c_stage * log Delta + c_pre * log log n`` rounds."""
    d = max(max_degree, 2)
    nn = max(n, 4)
    return c_stage * math.log2(d) + c_pre * math.log2(math.log2(nn))


def seed_bits_ids(n: int) -> int:
    """Pairwise seed over ids: ``2 ceil(log2 q)``, ``q = Theta(n)``."""
    return 2 * max(1, math.ceil(math.log2(max(n, 2))))


def seed_bits_colors(num_colors: int) -> int:
    """Section-5 seed over colors: ``2 ceil(log2 q*)``, ``q* = Theta(C)``."""
    return 2 * max(1, math.ceil(math.log2(max(num_colors, 2))))


#: Paper ceilings per registry entry: ``(problem, model) -> {metric: bound}``.
#: Expressions use the :mod:`repro.analysis.symbolic` vocabulary.  These are the
#: theorem statements, not the (possibly tighter) registry claims — a
#: declared claim must grow no faster than its ceiling here.
THEORY_BOUNDS: dict = {
    # Theorem 1: O(log Delta + log log n) rounds, total space O(m + n^{1+eps})
    # — one solve touches each edge O(1) times per round category.
    ("mis", "simulated"): {
        "rounds": "log(delta) + loglog(n)",
        "words_moved": "m",
    },
    ("matching", "simulated"): {
        "rounds": "log(delta) + loglog(n)",
        "words_moved": "m",
    },
    # Corollary 1 applications ride the same machinery.
    ("vc", "simulated"): {
        "rounds": "log(delta) + loglog(n)",
        "words_moved": "m",
    },
    ("coloring", "simulated"): {
        "rounds": "log(delta) + loglog(n)",
        "words_moved": "m * delta",
    },
    ("ruling2", "simulated"): {
        "rounds": "log(delta) + loglog(n)",
        "words_moved": "m",
    },
    # Theorem 2 regime: Luby on the literal engine, O(log n) rounds.
    ("mis", "mpc-engine"): {
        "rounds": "log(n)",
        "words_moved": "m * log(n)",
    },
    # Corollary 2: O(log Delta) CONGESTED CLIQUE rounds, O(n) words/round.
    ("mis", "cclique"): {
        "rounds": "log(delta)",
        "words_moved": "n * log(delta)",
    },
    ("matching", "cclique"): {
        "rounds": "log(delta)",
        "words_moved": "n * log(delta)",
    },
    # Section 6 CONGEST extension: seed agreement over a depth-D BFS tree
    # per phase.
    ("mis", "congest"): {
        "rounds": "depth * seed_bits * log(delta)",
        "words_moved": "m * seed_bits * log(delta)",
    },
    ("matching", "congest"): {
        "rounds": "depth * seed_bits * log(delta)",
        "words_moved": "m * seed_bits * log(delta)",
    },
}


def check_claim_dominance(entry=None) -> list[dict]:
    """Verify declared registry claims against :data:`THEORY_BOUNDS`.

    For every envelope-total claim of every registry entry (or just
    ``entry``), asymptotically compare claim vs ceiling on the sparse-graph
    growth schedule.  One record per claim: ``ok`` is True iff the claim is
    dominated (``compare_growth in ("lt", "eq")``), False if it *outgrows*
    the paper bound, and ``None`` when no ceiling is on file for that
    metric (surfaced, never silently skipped).
    """
    from ..api import REGISTRY

    records: list[dict] = []
    entries = [entry] if entry is not None else REGISTRY.entries()
    for e in entries:
        model = symbolic.parse_cost_model(e.cost_model)
        bounds = THEORY_BOUNDS.get((e.problem, e.model), {})
        if model is None or not model.totals:
            continue  # nothing claimed; conformance reports that gap
        for metric, expr in model.totals.items():
            bound = bounds.get(metric)
            rec = {
                "problem": e.problem,
                "model": e.model,
                "metric": metric,
                "claim": str(expr),
                "bound": bound,
            }
            if bound is None:
                rec.update(ok=None, status="no closed-form bound on file")
            else:
                order = symbolic.compare_growth(expr, bound)
                rec.update(order=order, ok=order in ("lt", "eq"))
            records.append(rec)
    return records
