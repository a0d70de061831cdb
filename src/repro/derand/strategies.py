"""Deterministic seed selection (the executable method of Section 2.4).

Every derandomization site in the paper has the same shape: a hash family
``H`` and an objective ``q(h)`` with ``E_h[q] >= Q``; the algorithm must
deterministically find ``h*`` with ``q(h*) >= Q`` in O(1) MPC rounds via the
method of conditional expectations.  This module provides three
interchangeable *deterministic* selectors (see DESIGN.md "Seed selection
fidelity" for the discussion):

``conditional_expectation``
    The literal Section-2.4 procedure.  The objective is evaluated for every
    seed once (vectorisable); the seed is then located by *prefix descent*:
    fix ``chunk_bits`` of the seed at a time, always choosing the extension
    whose exact conditional expectation (mean over consistent suffixes) is
    maximal.  Guarantees ``q(h*) >= E[q]``.  Cost Theta(|H|) objective
    evaluations, so it is used when the family is enumerable.

``scan``
    Deterministic scan of seeds in canonical order, stopping at the first
    seed whose objective meets an explicit ``target`` (which the existence
    argument guarantees some seed satisfies).  Expected O(1) trials when
    good seeds are abundant -- which the paper's lemmas establish -- and the
    trial count is returned so benchmarks can report it.  A ``start`` offset
    rotates the canonical order: the scan covers ``[start, |H|)`` first and
    then *wraps around* to ``[1, start)`` (seed 0 stays skipped whenever
    ``start >= 1`` -- it encodes the constant-zero hash), so a start past
    the end of the family or a late-phase offset never silently shrinks the
    searched region.  If the trial cap is exhausted the best seed seen is
    returned with ``satisfied=False``.

``best_of``
    Evaluate a fixed-size canonical prefix of the family and take the best.
    Cheap, deterministic, no a-priori guarantee; used in ablations.

Batched objectives
------------------
The engine underneath all three selectors consumes a :data:`BatchObjective`
-- ``seeds: int64[S] -> float64[S]`` -- evaluated in fixed-size seed chunks
with early exit on the first chunk containing a target hit.  Call sites
provide natively vectorised kernels (one hash ``evaluate_batch`` plus 2-D
segment reductions per chunk) and ramp their blocks up to
:data:`DEFAULT_SEED_CHUNK`, the one block-size constant; ``chunk_size=1``
(one seed per objective call) is the reference the tests and
``bench_seed_search`` compare against.  The chunk size never changes the
outcome: same selected seed, value, trial count,
``satisfied`` flag and ``family_mean`` for every chunk size, enforced by
property tests and the ``bench_seed_search`` parity gate.

The round cost of a selection is charged by the *caller* through the ledger
(``charge_seed_fix``), because it depends on model constants, not on which
selector ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from ..obs import trace as _obs
from ..obs.metrics import METRICS

__all__ = [
    "BatchObjective",
    "ConditionalExpectationError",
    "DEFAULT_SEED_CHUNK",
    "SeedSelection",
    "Strategy",
    "scan_regions",
    "select_seed_batch",
]

Strategy = str  # "conditional_expectation" | "scan" | "best_of"

#: Batched objective: maps an int64 seed block to per-seed float64 scores.
BatchObjective = Callable[[np.ndarray], np.ndarray]

#: Largest seed block a scan evaluates per objective call.  Read at call
#: time, so a test can substitute it in this one place.
DEFAULT_SEED_CHUNK = 64


class ConditionalExpectationError(RuntimeError):
    """The prefix-descent invariant ``q(h*) >= E[q]`` failed.

    This indicates a non-deterministic or mis-specified objective (the
    descent itself preserves "conditional mean >= global mean" by
    construction); it is raised as a real exception rather than an
    ``assert`` so the check survives ``python -O``.
    """


@dataclass(frozen=True)
class SeedSelection:
    """Outcome of a deterministic seed search."""

    seed: int
    value: float
    trials: int  # objective evaluations performed
    strategy: str
    satisfied: bool  # True iff the strategy's own guarantee was met
    family_mean: float | None = None  # exact E[q] when it was computed


# --------------------------------------------------------------------- #
# Canonical scan order
# --------------------------------------------------------------------- #


def scan_regions(family_size: int, start: int) -> tuple[list[tuple[int, int]], int]:
    """Half-open seed ranges covering the canonical (wrapped) scan order.

    The order is ``start, start+1, ..., family_size-1`` followed by the
    wrap region ``wrap_base, ..., start-1`` where ``wrap_base = 1`` when
    ``start >= 1`` (preserving the skip-the-constant-zero-hash convention)
    and ``0`` otherwise.  A ``start`` at or past the end of the family is
    reduced modulo the scannable span instead of silently clamping the
    region to a single seed.  Returns ``(regions, normalized_start)``.
    """
    if family_size < 1:
        raise ValueError("empty family")
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    wrap_base = 1 if start >= 1 else 0
    span = family_size - wrap_base
    if span <= 0:  # family is {0} but the caller asked to skip seed 0
        return [(0, family_size)], 0
    start = wrap_base + (start - wrap_base) % span
    regions = [(start, family_size)]
    if start > wrap_base:
        regions.append((wrap_base, start))
    return regions, start


#: First block size of the geometric ramp (see :func:`iter_seed_blocks`).
#: Starting at 1 makes the overwhelmingly common case -- the paper's lemmas
#: guarantee good seeds are abundant, so scans usually satisfy within the
#: first seed or two -- cost exactly what the lazy scalar scan costs, while
#: doubling reaches full vectorisation within ~log2(chunk) blocks.
RAMP_START = 1


def iter_seed_blocks(
    regions: list[tuple[int, int]], max_trials: int, chunk_size: int
) -> Iterator[np.ndarray]:
    """Yield int64 seed blocks along the scan order, ramping up to ``chunk_size``.

    Block sizes start at ``min(RAMP_START, chunk_size)`` and double per
    block: an early-exit scan evaluates at most twice the trials it would
    have spent one seed at a time, while long scans reach full
    ``chunk_size`` vectorisation within a few blocks.  The total
    number of seeds yielded is capped at ``max_trials``; block boundaries
    never affect which seeds are visited, only how many are evaluated per
    objective call.
    """
    budget = max_trials
    size = min(RAMP_START, chunk_size)
    for lo, hi in regions:
        s = lo
        while s < hi and budget > 0:
            c = min(size, hi - s, budget)
            yield np.arange(s, s + c, dtype=np.int64)
            budget -= c
            s += c
            size = min(size * 2, chunk_size)
        if budget <= 0:
            return


# --------------------------------------------------------------------- #
# Engine: every selector folds (seed block, value block) streams
# --------------------------------------------------------------------- #


def fold_scan(
    evaluated: Iterable[tuple[np.ndarray, np.ndarray]],
    target: float,
    first_seed: int,
) -> SeedSelection:
    """Fold evaluated seed blocks (in canonical order) into a scan outcome.

    Deterministic first-satisfying-seed resolution: the first seed in scan
    order whose value meets ``target`` wins, and ``trials`` counts only the
    seeds at or before it -- independent of how the stream was chunked.
    """
    best_seed, best_val = first_seed, -np.inf
    trials = 0
    for seeds, vals in evaluated:
        hits = np.nonzero(vals >= target)[0]
        if hits.size:
            i = int(hits[0])
            METRICS.inc("seed_scan.early_exits")
            METRICS.observe("seed_scan.early_exit_depth", trials + i + 1)
            return SeedSelection(
                seed=int(seeds[i]),
                value=float(vals[i]),
                trials=trials + i + 1,
                strategy="scan",
                satisfied=True,
            )
        trials += int(seeds.size)
        if vals.size:
            j = int(np.argmax(vals))
            if vals[j] > best_val:
                best_seed, best_val = int(seeds[j]), float(vals[j])
    return SeedSelection(
        seed=best_seed,
        value=float(best_val),
        trials=trials,
        strategy="scan",
        satisfied=bool(best_val >= target),
    )


def _evaluate_stream(
    batch_objective: BatchObjective, blocks: Iterator[np.ndarray]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    for seeds in blocks:
        vals = np.asarray(batch_objective(seeds), dtype=np.float64)
        if vals.shape != seeds.shape:
            raise ValueError(
                f"batch objective returned shape {vals.shape} for "
                f"{seeds.size} seeds"
            )
        METRICS.inc("seed_scan.chunks")
        METRICS.inc("seed_scan.trials", int(seeds.size))
        yield seeds, vals


def _scan(
    family_size: int,
    batch_objective: BatchObjective,
    target: float,
    max_trials: int,
    start: int,
    chunk_size: int,
) -> SeedSelection:
    regions, first_seed = scan_regions(family_size, start)
    stream = _evaluate_stream(
        batch_objective, iter_seed_blocks(regions, max_trials, chunk_size)
    )
    return fold_scan(stream, target, first_seed)


def _evaluate_all(
    family_size: int, batch_objective: BatchObjective, chunk_size: int
) -> np.ndarray:
    values = np.empty(family_size, dtype=np.float64)
    for seeds, vals in _evaluate_stream(
        batch_objective,
        iter_seed_blocks([(0, family_size)], family_size, chunk_size),
    ):
        values[seeds[0] : seeds[-1] + 1] = vals
    return values


def _conditional_expectation(
    family_size: int, batch_objective: BatchObjective, chunk_size: int
) -> SeedSelection:
    """Prefix-descent with exact conditional expectations.

    Seeds are integers in ``[0, family_size)``.  We fix bits from the most
    significant end; the conditional expectation of a prefix is the mean of
    the objective over all seeds sharing it (suffix enumeration made cheap
    by evaluating the whole family once up front).  Non-power-of-two family
    sizes are handled by restricting every prefix interval to
    ``[0, family_size)`` and skipping empty branches.
    """
    if family_size < 1:
        raise ValueError("empty family")
    values = _evaluate_all(family_size, batch_objective, chunk_size)
    mean = float(values.mean())
    bits = max(1, (family_size - 1).bit_length())
    lo, hi = 0, family_size  # current consistent interval [lo, hi)
    for level in range(bits - 1, -1, -1):
        width = 1 << level
        # candidate sub-intervals: [lo, lo+width) and [lo+width, hi)
        mid = min(lo + width, hi)
        left_mean = float(values[lo:mid].mean()) if mid > lo else -np.inf
        right_mean = float(values[mid:hi].mean()) if hi > mid else -np.inf
        if left_mean >= right_mean:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1:
            break
    seed = int(lo)
    val = float(values[seed])
    # The probabilistic-method invariant: every descent step preserves
    # "conditional mean >= global mean", so the final seed meets the bound.
    if not val >= mean - 1e-9:
        raise ConditionalExpectationError(
            f"conditional expectation descent lost the bound: "
            f"q(h*) = {val} < E[q] = {mean}"
        )
    return SeedSelection(
        seed=seed,
        value=val,
        trials=family_size,
        strategy="conditional_expectation",
        satisfied=True,
        family_mean=mean,
    )


def _best_of(
    family_size: int, batch_objective: BatchObjective, k: int, chunk_size: int
) -> SeedSelection:
    k = min(k, family_size)
    best_seed, best_val = 0, -np.inf
    for seeds, vals in _evaluate_stream(
        batch_objective, iter_seed_blocks([(0, k)], k, chunk_size)
    ):
        if vals.size:
            j = int(np.argmax(vals))
            if vals[j] > best_val:
                best_seed, best_val = int(seeds[j]), float(vals[j])
    return SeedSelection(
        seed=best_seed,
        value=float(best_val),
        trials=k,
        strategy="best_of",
        satisfied=True,
    )


# --------------------------------------------------------------------- #
# Public entry points
# --------------------------------------------------------------------- #


def select_seed_batch(
    family_size: int,
    batch_objective: BatchObjective,
    *,
    strategy: Strategy = "scan",
    target: float | None = None,
    max_trials: int = 512,
    enumeration_cap: int = 1 << 16,
    best_of_k: int = 64,
    start: int = 0,
    chunk_size: int | None = None,
) -> SeedSelection:
    """Deterministically pick a seed using a natively batched objective.

    Seed blocks ramp up to ``chunk_size`` seeds (``None`` means
    :data:`DEFAULT_SEED_CHUNK`); every chunk size returns the same
    :class:`SeedSelection` bit-for-bit, ``chunk_size=1`` included.  ``scan``
    requires a ``target`` (the value the existence argument guarantees);
    the other strategies ignore it.  ``start`` rotates the canonical scan
    order (see :func:`scan_regions`) -- stage searches start at 1 because
    seed 0 encodes the constant-zero hash (an all-or-nothing sampler that
    can be vacuously "good" without making progress at finite sizes).
    """
    if family_size < 1:
        raise ValueError("family_size must be >= 1")
    chunk = DEFAULT_SEED_CHUNK if chunk_size is None else chunk_size
    if chunk < 1:
        raise ValueError(f"seed chunk size must be >= 1, got {chunk}")
    t_sel = _obs.clock() if _obs._TRACING else 0.0
    if strategy == "conditional_expectation":
        if family_size > enumeration_cap:
            raise ValueError(
                f"family of size {family_size} exceeds enumeration cap "
                f"{enumeration_cap}; use strategy='scan'"
            )
        sel = _conditional_expectation(family_size, batch_objective, chunk)
    elif strategy == "scan":
        if target is None:
            raise ValueError("scan strategy requires a target")
        sel = _scan(family_size, batch_objective, target, max_trials, start, chunk)
    elif strategy == "best_of":
        sel = _best_of(family_size, batch_objective, best_of_k, chunk)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    if _obs._TRACING:
        _obs.record_span(
            "seed.select",
            t_sel,
            {
                "strategy": sel.strategy,
                "family_size": family_size,
                "trials": sel.trials,
                "seed": sel.seed,
                "satisfied": sel.satisfied,
                "chunk": chunk,
            },
        )
    return sel
