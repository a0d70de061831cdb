"""Fused JIT seed-scan objective (the ``jit`` seed backend).

The batched seed engine in :mod:`repro.derand.strategies` evaluates
objectives chunk by chunk through numpy kernels.  :func:`make_lowdeg_objective`
builds the :data:`~repro.derand.strategies.BatchObjective` closure over the
compiled loop in :mod:`repro.graphs.kernels_jit` that fuses the Luby-step
select/reduce of one low-degree phase (:func:`repro.core.lowdeg.lowdeg_mis`):
color-hash keys, local-minimum candidate mask, and the covered-degree
objective in three O(n + arcs) passes over reusable scratch, with no
``(S, n)`` key grid.

The builder assumes the caller resolved the ``jit`` seed backend (numba
present); without numba the closure still runs through the plain-Python
kernel body, which is how the parity suite exercises it everywhere.
"""

from __future__ import annotations

import numpy as np

from ..graphs import kernels_jit

__all__ = ["make_lowdeg_objective"]


def make_lowdeg_objective(
    family,
    colors_live: np.ndarray,
    live: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    deg_sel: np.ndarray,
    n: int,
):
    """Fused :data:`BatchObjective` twin of the lowdeg phase objective.

    ``family`` is the phase's :class:`ColorHashFamily`; ``colors_live`` /
    ``live`` list the surviving nodes' colors and ids; ``indices`` /
    ``indptr`` are the current graph's CSR arrays; ``deg_sel[v]`` is the
    integer degree weight of the Section-4 ``A``-set objective.
    """
    base = family.base
    q = np.uint64(base.q)
    stride = np.uint64(n + 1)
    maxkey = np.uint64(np.iinfo(np.uint64).max)
    colors_u = np.ascontiguousarray(colors_live, dtype=np.uint64)
    live64 = np.ascontiguousarray(live, dtype=np.int64)
    idx64 = np.ascontiguousarray(indices, dtype=np.int64)
    iptr64 = np.ascontiguousarray(indptr, dtype=np.int64)
    deg64 = np.ascontiguousarray(deg_sel, dtype=np.int64)
    key = np.empty(n, dtype=np.uint64)
    imask = np.empty(n, dtype=bool)
    run = kernels_jit.kernel("lowdeg_phase")

    def objective(seeds: np.ndarray) -> np.ndarray:
        seed_arr = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
        coeffs = np.ascontiguousarray(base._stacked_coefficients(seed_arr))
        out = np.empty(seed_arr.size, dtype=np.float64)
        run(coeffs, q, colors_u, live64, idx64, iptr64, deg64, stride,
            maxkey, key, imask, out)
        return out

    return objective
