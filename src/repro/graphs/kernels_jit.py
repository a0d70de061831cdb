"""Numba-JIT fused kernels (the third kernel backend, ``jit``).

The ``csr`` backend already replaced per-element scatter loops with
whole-array numpy reductions; what it cannot remove is the per-chunk numpy
dispatch and the materialised intermediates (padded gather tables, ``(S, N)``
hash grids).  This module provides the same gated hot kernels as single
compiled loops:

* :func:`segment_min_block_fn` / :func:`segment_any_block_fn` /
  :func:`segment_count_2d` -- drop-in twins of the ``csr`` builders in
  :mod:`repro.graphs.kernels`, fused over ``(seed_chunk x arcs)`` with no
  padded table;
* :func:`linial_first_free` -- the Linial clash kernel: per node, the first
  evaluation point no neighbour collides on (early exit per ``x``);
* the low-degree Luby phase loop consumed by :mod:`repro.derand.seed_jit`,
  which fuses the color-hash keys into the neighbourhood select/reduce so
  no ``(S, n)`` key grid is ever built.

Gating follows the scipy pattern in :mod:`repro.graphs.kernels`: numba is
probed lazily, and when it is missing or import-broken the backend resolvers
degrade to ``csr`` / ``batched`` with a one-time :class:`JitFallbackWarning`
plus a ``kernels.jit_fallbacks`` metrics counter -- never an error.  Every
kernel body in this module is *nopython-compatible plain Python*: without
numba the same functions run uncompiled (slow but exact), which is what the
parity tests exercise in numba-free environments.

Bit-identity contract: all kernels use only integer arithmetic and order-free
reductions (min / any / integer count), exactly like their numpy twins, so
outputs are bit-identical regardless of loop order.  Compilation cost is
observable: the first call of each kernel records a ``jit.compile`` span
(the span covers compile + first execution; compile dominates) and feeds the
``kernels.jit_compile_s`` histogram.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..obs import trace as _obs
from ..obs.metrics import METRICS

__all__ = [
    "JitFallbackWarning",
    "available",
    "kernel",
    "linial_first_free",
    "note_fallback",
    "segment_any_block_fn",
    "segment_count_2d",
    "segment_min_block_fn",
]


class JitFallbackWarning(UserWarning):
    """The ``jit`` backend was requested but numba is unavailable."""


#: Lazy probe / compile cache.  ``probed`` flips on the first availability
#: check; ``njit`` is the numba decorator (or ``None``); ``warned`` makes the
#: fallback warning one-time; ``kernels`` maps kernel name -> callable
#: (compiled when numba is present, the plain Python body otherwise).
_state: dict = {"probed": False, "njit": None, "warned": False, "kernels": {}}


def _probe():
    if not _state["probed"]:
        _state["probed"] = True
        try:  # numba is an optional accelerator, never a hard dependency
            from numba import njit

            _state["njit"] = njit
        except Exception:  # ImportError or a broken install; treat alike
            _state["njit"] = None
    return _state["njit"]


def available() -> bool:
    """True iff numba imports cleanly (probed once, cached)."""
    return _probe() is not None


def note_fallback(context: str) -> None:
    """Record one jit->numpy fallback: counter always, warning once."""
    METRICS.inc("kernels.jit_fallbacks")
    if not _state["warned"]:
        _state["warned"] = True
        warnings.warn(
            f"kernel backend 'jit' requested ({context}) but numba is "
            "unavailable; falling back to the vectorized numpy backend",
            JitFallbackWarning,
            stacklevel=3,
        )


def _reset_for_tests() -> None:
    """Drop the probe/compile cache (fallback-path tests re-probe)."""
    _state.update(probed=False, njit=None, warned=False, kernels={})


# --------------------------------------------------------------------- #
# Kernel bodies: nopython-compatible plain Python
# --------------------------------------------------------------------- #


def _segment_min_block(values, cols, indptr, out, fill):
    """out[s, i] = min over j in [indptr[i], indptr[i+1]) of values[s, cols[j]]."""
    for s in range(values.shape[0]):
        for i in range(indptr.shape[0] - 1):
            acc = fill
            for j in range(indptr[i], indptr[i + 1]):
                v = values[s, cols[j]]
                if v < acc:
                    acc = v
            out[s, i] = acc


def _segment_any_block(mask, cols, indptr, out):
    """out[s, i] = any(mask[s, cols[j]]) over segment i (early exit per hit)."""
    for s in range(mask.shape[0]):
        for i in range(indptr.shape[0] - 1):
            hit = False
            for j in range(indptr[i], indptr[i + 1]):
                if mask[s, cols[j]]:
                    hit = True
                    break
            out[s, i] = hit


def _segment_count(mask, indptr, out):
    """out[s, i] = popcount of mask[s, indptr[i]:indptr[i+1]]."""
    for s in range(mask.shape[0]):
        for i in range(indptr.shape[0] - 1):
            c = 0
            for j in range(indptr[i], indptr[i + 1]):
                if mask[s, j]:
                    c += 1
            out[s, i] = c


def _linial_first_free(evals, indices, indptr, out):
    """out[v] = smallest x with evals[v, x] != evals[u, x] for all nbrs u.

    Returns the number of nodes with no free point (0 under the
    ``q > d * Delta`` root bound; the wrapper turns nonzero into the same
    AssertionError the numpy path raises).
    """
    n = indptr.shape[0] - 1
    q = evals.shape[1]
    missing = 0
    for v in range(n):
        lo = indptr[v]
        hi = indptr[v + 1]
        found = -1
        for x in range(q):
            ok = True
            for j in range(lo, hi):
                if evals[indices[j], x] == evals[v, x]:
                    ok = False
                    break
            if ok:
                found = x
                break
        if found < 0:
            missing += 1
            found = 0
        out[v] = found
    return missing


def _lowdeg_phase(coeffs, q, colors_live, live, indices, indptr, deg_sel,
                  stride, maxkey, key, imask, out):
    """Fused lowdeg/Luby phase objective: select keys, local minima, reduce.

    Per seed: (1) fill ``key`` with the sentinel and write
    ``h(color) * stride + v`` at live nodes (stacked-Horner, pairwise
    family); (2) ``imask[v]`` = key[v] beats every neighbour's key;
    (3) objective = integer sum of ``deg_sel[v]`` over selected-or-covered
    nodes.  Three O(n + arcs) passes over two scratch arrays -- no (S, n)
    key grid -- matching the numpy closure in ``lowdeg_mis`` bit-for-bit
    (integer keys, order-free min/any, exact int -> float64 cast).
    """
    k = coeffs.shape[0]
    n = indptr.shape[0] - 1
    for s in range(coeffs.shape[1]):
        for v in range(n):
            key[v] = maxkey
            imask[v] = False
        for j in range(live.shape[0]):
            x = colors_live[j]
            h = coeffs[k - 1, s]
            for a in range(k - 2, -1, -1):
                h = (h * x + coeffs[a, s]) % q
            key[live[j]] = h * stride + np.uint64(live[j])
        for v in range(n):
            if key[v] == maxkey:
                continue  # dead node: never a candidate
            win = True
            for j in range(indptr[v], indptr[v + 1]):
                if key[indices[j]] <= key[v]:
                    win = False
                    break
            imask[v] = win
        acc = 0
        for v in range(n):
            d = deg_sel[v]
            if d == 0:
                continue
            if imask[v]:
                acc += d
                continue
            for j in range(indptr[v], indptr[v + 1]):
                if imask[indices[j]]:
                    acc += d
                    break
        out[s] = np.float64(acc)


_BODIES = {
    "segment_min_block": _segment_min_block,
    "segment_any_block": _segment_any_block,
    "segment_count": _segment_count,
    "linial_first_free": _linial_first_free,
    "lowdeg_phase": _lowdeg_phase,
}


def kernel(name: str):
    """The kernel registered under ``name``: njit-compiled when numba is
    available, the plain Python body otherwise.

    With numba, the first call goes through a timing shim that records the
    ``jit.compile`` span / ``kernels.jit_compile_s`` sample and then swaps
    the raw compiled dispatcher into the cache, so the warm path pays no
    wrapper overhead.
    """
    fn = _state["kernels"].get(name)
    if fn is not None:
        return fn
    body = _BODIES[name]
    njit = _probe()
    if njit is None:
        _state["kernels"][name] = body
        return body
    jitted = njit(cache=True, nogil=True)(body)

    def first_call(*args, _name=name, _jitted=jitted):
        t0 = _obs.clock()
        result = _jitted(*args)
        METRICS.observe("kernels.jit_compile_s", _obs.clock() - t0)
        if _obs._TRACING:
            _obs.record_span("jit.compile", t0, {"kernel": _name})
        _state["kernels"][_name] = _jitted
        return result

    _state["kernels"][name] = first_call
    return first_call


# --------------------------------------------------------------------- #
# Drop-in twins of the csr block-kernel builders
# --------------------------------------------------------------------- #


def segment_min_block_fn(cols: np.ndarray, indptr: np.ndarray, width: int):
    """Jit twin of :func:`repro.graphs.kernels.segment_min_block_fn`."""
    cols64 = np.ascontiguousarray(cols, dtype=np.int64)
    iptr = np.ascontiguousarray(indptr, dtype=np.int64)
    m = iptr.size - 1
    run = kernel("segment_min_block")

    def f(values: np.ndarray, fill) -> np.ndarray:
        out = np.empty((values.shape[0], m), dtype=values.dtype)
        run(np.ascontiguousarray(values), cols64, iptr, out,
            values.dtype.type(fill))
        return out

    return f


def segment_any_block_fn(cols: np.ndarray, indptr: np.ndarray, width: int):
    """Jit twin of :func:`repro.graphs.kernels.segment_any_block_fn`."""
    cols64 = np.ascontiguousarray(cols, dtype=np.int64)
    iptr = np.ascontiguousarray(indptr, dtype=np.int64)
    m = iptr.size - 1
    run = kernel("segment_any_block")

    def f(mask: np.ndarray) -> np.ndarray:
        out = np.empty((mask.shape[0], m), dtype=bool)
        run(np.ascontiguousarray(mask), cols64, iptr, out)
        return out

    return f


def segment_count_2d(mask: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Jit twin of :func:`repro.graphs.kernels.segment_count_2d`."""
    iptr = np.ascontiguousarray(indptr, dtype=np.int64)
    out = np.empty((mask.shape[0], iptr.size - 1), dtype=np.int32)
    kernel("segment_count")(np.ascontiguousarray(mask), iptr, out)
    return out


def linial_first_free(evals: np.ndarray, indices: np.ndarray,
                      indptr: np.ndarray) -> np.ndarray:
    """int64[n]: first clash-free Linial evaluation point per node."""
    out = np.zeros(indptr.size - 1, dtype=np.int64)
    missing = kernel("linial_first_free")(
        np.ascontiguousarray(evals, dtype=np.int64),
        np.ascontiguousarray(indices, dtype=np.int64),
        np.ascontiguousarray(indptr, dtype=np.int64),
        out,
    )
    if missing:  # unreachable by the q > d * Delta root bound
        raise AssertionError("Linial step found no free evaluation point")
    return out
