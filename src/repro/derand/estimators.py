"""Concentration bounds that size goodness slacks (paper Lemma 9).

The sparsification stages declare a machine *good* for a hash function ``h``
when its sampled-item count lies within ``mu +- lambda``.  The paper sets
``lambda = n^{0.1 delta} sqrt(e_x)`` and invokes the Bellare-Rompel moment
bound (their Lemma 9) to get per-machine failure probability ``n^{-5}``.

A run does not size its windows from this module.  The stage seed search
(:func:`repro.core.stage.run_stage_seed_search`) uses
``lambda_x = kappa (sqrt(e_x) + 1)``: ``kappa`` starts at the paper's
``n^{0.1 delta}`` and is multiplied by ``SLACK_ESCALATION``, at most
``max_slack_escalations`` times, while no seed makes every machine good.
The slacks computed here, which an independence level *certifies* for the
stage's machine loads, are reported beside that choice
(``StageSearchOutcome.certified_lambdas``).

Functions
---------
``slack_for_failure_array``-- per machine load, the minimal ``lambda`` whose
                              Chebyshev (``c = 2``) or Bellare-Rompel (even
                              ``c >= 4``) tail is at most ``fail_prob``.
``certified_slacks``       -- per-machine slacks under an even split of an
                              ``E[#bad] < budget`` budget, as one array
                              expression over a whole stage's machines.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "certified_slacks",
    "slack_for_failure_array",
]


def slack_for_failure_array(
    c: int,
    t: np.ndarray,
    fail_prob: float,
    *,
    p: float | None = None,
) -> np.ndarray:
    """Minimal per-machine slack with tail probability ``<= fail_prob``.

    ``t`` is the vector of per-machine item counts (``e_x``).  ``c = 2``
    uses Chebyshev with variance ``t p (1 - p)`` (``p`` is the Bernoulli
    rate; without it the worst case ``t / 4``); even ``c >= 4`` inverts
    Bellare-Rompel, ``Pr[|Z - mu| >= lam] <= 2 (c t / lam^2)^{c/2}``, to
    ``lam = sqrt(c t) * (2 / fail)^{1/c}``.  Machines with no items get 0.
    """
    if fail_prob <= 0 or fail_prob > 1:
        raise ValueError("fail_prob must be in (0, 1]")
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    pos = t > 0
    if c == 2:
        var = t * p * (1.0 - p) if p is not None else t / 4.0
        out[pos] = np.sqrt(var[pos] / fail_prob)
        return out
    if c < 4 or c % 2 != 0:
        raise ValueError("Bellare-Rompel requires even c >= 4")
    out[pos] = np.sqrt(c * t[pos]) * (2.0 / fail_prob) ** (1.0 / c)
    return out


def certified_slacks(
    loads: np.ndarray,
    p: float,
    *,
    budget: float = 1.0,
    c: int = 2,
) -> np.ndarray:
    """Per-machine slacks making ``E[#bad machines] < budget`` certifiable.

    The budget is split evenly over the machines (any split works; even is
    the standard choice), each machine's share is inverted through the
    chosen concentration bound, and the whole computation is one array
    expression.  Returns zeros for an empty machine group.
    """
    loads = np.asarray(loads, dtype=np.float64)
    if loads.size == 0:
        return loads.copy()
    if budget <= 0:
        raise ValueError("budget must be positive")
    share = min(1.0, budget / loads.size)
    return slack_for_failure_array(c, loads, share, p=p if c == 2 else None)
