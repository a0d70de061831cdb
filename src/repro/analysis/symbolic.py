"""Symbolic cost models: sympy expressions checked against charge streams.

This is the ROADMAP's *symbolic complexity ledger*.  The named-shape
vocabulary of :mod:`repro.analysis.conformance` could say ``rounds ~
log_delta_plus_loglog_n`` about a solve's *endpoint totals*; this module
lets a registry entry state the paper's claims the way the paper does —
per phase, per charge category, as expressions over a shared symbol
vocabulary::

    cost_model={
        "rounds": "depth * seed_bits * log(delta)",
        "words_moved": "n * seed_bits * log(delta)",
        "phases": {
            "phase_seed": {"rounds": "depth * seed_bits * log(delta)"},
            "phase_local": {"rounds": "log(delta)"},
        },
        "refs": ("Corollary 3", "Section 2.4"),
    }

and have the checker verify each phase's *measured per-charge stream*
(the ``charge`` span events :meth:`~repro.models.ledger.RoundLedger.
charge` emits under tracing, in every cost model) against its
declared expression — surfacing which phase blows a claim, not just
which solver.

Symbol vocabulary (all positive):

=============  ======================================================
``n``          vertices of the input graph
``m``          edges of the input graph
``delta``      maximum degree (Delta)
``depth``      BFS-tree depth (CONGEST aggregation trees), else ~log n
``gamma``      the local-space exponent (S = Theta(n^gamma); ``eps``)
``seed_bits``  bits of the derandomization seed (Theta(log n))
``machines``   machines / nodes executing the round schedule
``space``      words of local space per machine (S)
=============  ======================================================

Expressions use ``log`` (clamped: ``log(max(x, 2))``, matching the
named-shape vocabulary's guards) and ``loglog`` as shorthands; anything
:func:`sympy.sympify` accepts over these symbols parses.

Checking semantics — claims are **O(·) upper bounds**, so a series is
*conformant* when either criterion holds:

* **constant fit** — one-parameter least squares through the origin
  tracks the series (``R^2 >= 0.8`` or NRMSE ``<= 0.15``, the
  :mod:`~repro.analysis.conformance` thresholds); the claim is *tight*;
* **dominance** — the measured series does not outgrow the claim over
  the sweep (the ratio ``measured / claimed`` grows by at most
  ``GROWTH_SLACK``); the claim is a loose-but-sound bound (round counts
  that stay flat while the claim allows ``log n`` are fine).

A ``Theta(n)`` series declared ``O(log n)`` fails both and is reported
non-conformant.  Like the shape fits, this is a smoke alarm over a
handful of feasible sizes, not a proof.

sympy is imported lazily so the solver hot paths (which import
``repro.obs.trace``) never pay for it; it is required only when symbolic
checking or doc generation actually runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "GROWTH_SLACK",
    "SYMBOL_DOC",
    "SYMBOL_NAMES",
    "CostModel",
    "check_series",
    "compare_growth",
    "evaluate_expr",
    "fit_constant",
    "growth_check",
    "parse_cost_model",
    "parse_expr",
    "render_claim",
    "symbol_defaults",
]

#: The shared symbol vocabulary, in display order.
SYMBOL_NAMES = (
    "n",
    "m",
    "delta",
    "depth",
    "gamma",
    "seed_bits",
    "machines",
    "space",
)

#: One-line meaning per symbol (rendered into ``docs/THEORY.md``).
SYMBOL_DOC = {
    "n": "vertices of the input graph",
    "m": "edges of the input graph",
    "delta": "maximum degree (Delta)",
    "depth": "BFS-tree depth of the CONGEST aggregation trees",
    "gamma": "local-space exponent (S = Theta(n^gamma))",
    "seed_bits": "bits of the derandomization seed (Theta(log n))",
    "machines": "machines / nodes executing the round schedule",
    "space": "words of local space per machine (S)",
}

#: Dominance criterion: the measured/claimed ratio may grow by at most
#: this factor across the sweep before the claim is called outgrown.
GROWTH_SLACK = 2.0

#: A constant fit is tight when R^2 reaches this ...
R2_THRESHOLD = 0.8
#: ... or, for near-flat series (no variance for R^2 to explain), when the
#: RMS residual stays within this fraction of the series mean.
NRMSE_THRESHOLD = 0.15


def _sympy():
    try:
        import sympy
    except ImportError as exc:  # pragma: no cover - sympy ships with CI
        raise ImportError(
            "the symbolic complexity ledger needs sympy "
            "(repro.analysis.symbolic is the only consumer; the solvers do not)"
        ) from exc
    return sympy


def _symbols() -> dict:
    sympy = _sympy()
    return {name: sympy.Symbol(name, positive=True) for name in SYMBOL_NAMES}


def _safe_log(x: float) -> float:
    """``log`` with the same clamp the named-shape vocabulary uses."""
    return math.log(max(float(x), 2.0))


def parse_expr(text: str):
    """Parse ``text`` into a sympy expression over the shared vocabulary.

    ``log`` is sympy's; ``loglog(x)`` is shorthand for ``log(log(x))``.
    Unknown symbols raise ``ValueError`` naming the offenders — a typo in
    a registry declaration should fail at declaration-check time, not
    silently fit garbage.
    """
    sympy = _sympy()
    syms = _symbols()
    local = dict(syms)
    local["log"] = sympy.log
    local["loglog"] = lambda x: sympy.log(sympy.log(x))
    try:
        expr = sympy.sympify(text, locals=local)
    except (sympy.SympifyError, SyntaxError, TypeError) as exc:
        raise ValueError(f"unparseable cost expression {text!r}: {exc}") from None
    unknown = {str(s) for s in expr.free_symbols} - set(SYMBOL_NAMES)
    if unknown:
        raise ValueError(
            f"cost expression {text!r} uses unknown symbols {sorted(unknown)}; "
            f"vocabulary: {list(SYMBOL_NAMES)}"
        )
    return expr


def symbol_defaults(row: dict) -> dict:
    """Fill derivable symbols a sweep row may lack (``gamma`` stays hard).

    ``seed_bits`` defaults to the model's ``Theta(log n)`` seed length and
    ``depth`` to ``ceil(log n)`` when the row has an ``n``; symbols with no
    derivation (``gamma``, ``machines``, ``space``) are never invented —
    a claim that needs them on a row without them is reported as
    unmeasurable, not silently guessed.
    """
    out = dict(row)
    n = out.get("n")
    if n is not None:
        out.setdefault("seed_bits", max(1, math.ceil(math.log2(max(n, 2)))))
        out.setdefault("depth", max(1, math.ceil(_safe_log(n))))
    return out


def evaluate_expr(expr, row: dict) -> float:
    """Evaluate ``expr`` on one sweep row (``log`` clamped at 2).

    Raises ``KeyError`` listing the missing symbols when the row lacks a
    value the expression needs.
    """
    needed = sorted(str(s) for s in expr.free_symbols)
    row = symbol_defaults(row)
    missing = [name for name in needed if row.get(name) is None]
    if missing:
        raise KeyError(
            f"row is missing symbols {missing} needed by {expr}; "
            f"row keys: {sorted(k for k, v in row.items() if v is not None)}"
        )
    fn = _lambdified(expr, tuple(needed))
    return float(fn(*(float(row[name]) for name in needed)))


_LAMBDIFY_CACHE: dict = {}


def _lambdified(expr, argnames: tuple[str, ...]):
    sympy = _sympy()
    key = (sympy.srepr(expr), argnames)
    fn = _LAMBDIFY_CACHE.get(key)
    if fn is None:
        syms = _symbols()
        fn = sympy.lambdify(
            [syms[name] for name in argnames],
            expr,
            modules=[{"log": _safe_log}, "math"],
        )
        _LAMBDIFY_CACHE[key] = fn
    return fn


# --------------------------------------------------------------------- #
# Cost-model declarations
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class CostModel:
    """A registry entry's parsed symbolic cost declaration.

    ``totals`` maps envelope metrics (``rounds`` / ``words_moved``) to
    expressions; ``phases`` maps ledger charge categories to per-stream
    metric (``rounds`` / ``words``) expressions.  ``refs`` are paper
    cross-references, ``notes`` the honest caveats (both flow into
    ``docs/THEORY.md``).
    """

    totals: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    refs: tuple = ()
    notes: str = ""

    def claims(self):
        """Iterate ``(category_or_None, metric, expr)`` over every claim."""
        for metric, expr in self.totals.items():
            yield None, metric, expr
        for category, metrics in self.phases.items():
            for metric, expr in metrics.items():
                yield category, metric, expr


_TOTAL_METRICS = ("rounds", "words_moved")
_PHASE_METRICS = ("rounds", "words")


def parse_cost_model(spec: dict | None) -> CostModel | None:
    """Parse the raw ``cost_model=`` dict a solver registers.

    Keys: the total metrics (``rounds``, ``words_moved``) map to
    expression strings; ``phases`` maps charge categories to
    ``{metric: expression}`` dicts over the per-charge stream metrics
    (``rounds``, ``words``); ``refs`` / ``notes`` are documentation.
    Unknown keys or metrics raise ``ValueError`` so declarations are
    validated where they are written.
    """
    if spec is None:
        return None
    known = set(_TOTAL_METRICS) | {"phases", "refs", "notes"}
    unknown = set(spec) - known
    if unknown:
        raise ValueError(
            f"unknown cost_model keys {sorted(unknown)}; "
            f"expected a subset of {sorted(known)}"
        )
    totals = {
        metric: parse_expr(spec[metric])
        for metric in _TOTAL_METRICS
        if spec.get(metric) is not None
    }
    phases = {}
    for category, metrics in (spec.get("phases") or {}).items():
        bad = set(metrics) - set(_PHASE_METRICS)
        if bad:
            raise ValueError(
                f"phase {category!r} declares unknown stream metrics "
                f"{sorted(bad)}; expected a subset of {list(_PHASE_METRICS)}"
            )
        phases[category] = {
            metric: parse_expr(text) for metric, text in metrics.items()
        }
    return CostModel(
        totals=totals,
        phases=phases,
        refs=tuple(spec.get("refs") or ()),
        notes=str(spec.get("notes") or ""),
    )


def render_claim(expr) -> str:
    """Render an expression as the big-O claim it states."""
    return f"O({expr})"


# --------------------------------------------------------------------- #
# Series checking: constant fit + asymptotic dominance
# --------------------------------------------------------------------- #


def fit_constant(values: list[float], series: list[float]) -> dict:
    """One-parameter least squares through the origin, ``c* = sum y*s /
    sum s^2``; the fit is ok when ``R^2 >= R2_THRESHOLD`` or the RMS
    residual relative to the series mean is ``<= NRMSE_THRESHOLD``."""
    ys, ss = list(map(float, values)), list(map(float, series))
    denom = sum(s * s for s in ss)
    c = sum(y * s for y, s in zip(ys, ss)) / denom if denom else 0.0
    mean = sum(ys) / len(ys) if ys else 0.0
    ss_tot = sum((y - mean) ** 2 for y in ys)
    ss_res = sum((y - c * s) ** 2 for y, s in zip(ys, ss))
    if ss_tot > 0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res < 1e-12 * max(denom, 1.0) else 0.0
    if ys and mean > 0:
        nrmse = math.sqrt(ss_res / len(ys)) / mean
    else:
        nrmse = 0.0 if ss_res == 0.0 else float("inf")
    return {
        "constant": round(c, 6),
        "r2": round(r2, 6),
        "nrmse": round(nrmse, 6),
        "fit_ok": bool(r2 >= R2_THRESHOLD or nrmse <= NRMSE_THRESHOLD),
    }


def growth_check(
    values: list[float], series: list[float], slack: float = GROWTH_SLACK
) -> dict:
    """Does the measured series stay dominated by the claimed one?

    Compares the first and last positive ``measured / claimed`` ratios;
    growth beyond ``slack`` means the claim is outgrown inside the sweep.
    Single-point sweeps (and all-zero series) carry no growth information:
    ``growth_ok`` is ``None`` — not assessable, not a failure.
    """
    ratios = [
        (y / s) for y, s in zip(values, series) if s > 0 and y > 0
    ]
    if len(ratios) < 2:
        return {"ratio_growth": None, "growth_ok": None}
    growth = ratios[-1] / ratios[0] if ratios[0] > 0 else float("inf")
    return {
        "ratio_growth": round(growth, 6),
        "growth_ok": bool(growth <= slack),
    }


def check_series(rows: list[dict], values: list[float], expr) -> dict:
    """Check one measured series against one claimed expression.

    Returns a record with the claim text, the fit (``constant`` / ``r2``
    / ``nrmse``), the dominance verdict, and the combined ``ok``:
    conformant when the constant fit is tight **or** the series stays
    within the claimed growth (O-claims are upper bounds).  Rows missing
    a symbol the expression needs yield ``ok: None`` with the missing
    names in ``status`` — unmeasurable, surfaced rather than guessed.
    """
    base = {"expr": str(expr), "claim": render_claim(expr), "points": len(rows)}
    try:
        series = [evaluate_expr(expr, r) for r in rows]
    except KeyError as exc:
        return {**base, "ok": None, "status": str(exc.args[0])}
    fit = fit_constant(values, series)
    growth = growth_check(values, series)
    ok = fit["fit_ok"] or bool(growth["growth_ok"])
    return {**base, **fit, **growth, "ok": ok, "tight": fit["fit_ok"]}


# --------------------------------------------------------------------- #
# Asymptotic dominance ordering (docs + declaration sanity)
# --------------------------------------------------------------------- #

#: The growth schedule ``compare_growth`` evaluates on: a sparse-graph
#: scaling regime (m = 3n, slowly growing degree, log-depth trees,
#: fixed gamma) at geometrically growing n.
_GROWTH_SCHEDULE = tuple(
    {
        "n": n,
        "m": 3 * n,
        "delta": max(4.0, _safe_log(n) ** 2),
        "depth": max(2.0, _safe_log(n)),
        "gamma": 0.5,
        "seed_bits": max(1.0, math.log2(n)),
        "machines": max(2.0, n**0.5),
        "space": max(4.0, 32 * n**0.5),
    }
    for n in (2**14, 2**20, 2**26, 2**32, 2**38)
)

#: Total ratio drift across the schedule below this factor reads as
#: "same order" — wide enough that constant-factor spellings tie, tight
#: enough that one ``log log n`` factor separates over the n-range.
_TIE_TOLERANCE = 1.25


def compare_growth(a, b) -> str:
    """Asymptotically compare two claims on the sparse-graph schedule.

    Returns ``"lt"`` / ``"eq"`` / ``"gt"`` for ``a`` growing slower than /
    with / faster than ``b``.  ``"eq"`` covers genuine ties — ``m`` vs
    ``n`` on the sparse schedule, or syntactically different spellings of
    one order — where neither direction's ratio drifts past the
    tolerance.  Accepts expression strings or parsed expressions.
    """
    if isinstance(a, str):
        a = parse_expr(a)
    if isinstance(b, str):
        b = parse_expr(b)
    ratios = [
        evaluate_expr(a, row) / max(evaluate_expr(b, row), 1e-300)
        for row in _GROWTH_SCHEDULE
    ]
    drift = ratios[-1] / ratios[0] if ratios[0] > 0 else float("inf")
    if drift > _TIE_TOLERANCE:
        return "gt"
    if drift < 1.0 / _TIE_TOLERANCE:
        return "lt"
    return "eq"
