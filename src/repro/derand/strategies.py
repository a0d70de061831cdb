"""Deterministic seed selection (the executable method of Section 2.4).

Every derandomization site in the paper has the same shape: a hash family
``H`` and an objective ``q(h)`` with ``E_h[q] >= Q``; the algorithm must
deterministically find ``h*`` with ``q(h*) >= Q`` in O(1) MPC rounds.  The
one selector here is a deterministic *scan* (see DESIGN.md "Seed selection
fidelity"): seeds are visited in canonical order and the first seed whose
objective meets an explicit ``target`` wins.  The existence argument
guarantees some seed does, and the paper's lemmas make good seeds
abundant, so a scan usually stops within a seed or two; the trial count
is returned so benchmarks can report it.

A ``start`` offset rotates the canonical order: the scan covers
``[start, |H|)`` first and then *wraps around* to ``[1, start)`` (seed 0
stays skipped whenever ``start >= 1`` -- it encodes the constant-zero
hash), so a start past the end of the family or a late-phase offset never
silently shrinks the searched region.  If the trial cap is exhausted the
first best seed seen is returned with ``satisfied=False``.

Batched objectives
------------------
The scan consumes a :data:`BatchObjective` -- ``seeds: int64[S] ->
float64[S]`` -- evaluated in seed blocks with early exit on the first
block containing a target hit.  Call sites provide natively vectorised
kernels (one hash ``evaluate_batch`` plus 2-D segment reductions per
block) and ramp their blocks up to :data:`DEFAULT_SEED_CHUNK`, the one
block-size constant; ``chunk_size=1`` (one seed per objective call) is
the reference the tests and ``bench_seed_search`` compare against.  The
chunk size never changes the outcome: same selected seed, value, trial
count and ``satisfied`` flag for every chunk size, enforced by property
tests and the ``bench_seed_search`` parity gate.

The round cost of a selection is charged by the *caller* through the ledger
(``charge_seed_fix``), because it depends on model constants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from ..obs import trace as _obs
from ..obs.metrics import METRICS

__all__ = [
    "BatchObjective",
    "DEFAULT_SEED_CHUNK",
    "SeedSelection",
    "pick_seed",
    "scan_regions",
    "select_seed_batch",
]

#: Batched objective: maps an int64 seed block to per-seed float64 scores.
BatchObjective = Callable[[np.ndarray], np.ndarray]

#: Largest seed block a scan evaluates per objective call.  Read at call
#: time, so a test can substitute it in this one place.
DEFAULT_SEED_CHUNK = 64


@dataclass(frozen=True)
class SeedSelection:
    """Outcome of a deterministic seed scan."""

    seed: int
    value: float
    trials: int  # objective evaluations performed
    satisfied: bool  # True iff the value meets the scan's target


# --------------------------------------------------------------------- #
# Canonical scan order
# --------------------------------------------------------------------- #


def scan_regions(family_size: int, start: int) -> list[tuple[int, int]]:
    """Half-open seed ranges covering the canonical (wrapped) scan order.

    The order is ``start, start+1, ..., family_size-1`` followed by the
    wrap region ``wrap_base, ..., start-1`` where ``wrap_base = 1`` when
    ``start >= 1`` (preserving the skip-the-constant-zero-hash convention)
    and ``0`` otherwise.  A ``start`` at or past the end of the family is
    reduced modulo the scannable span instead of silently clamping the
    region to a single seed.
    """
    if family_size < 1:
        raise ValueError("empty family")
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    wrap_base = 1 if start >= 1 else 0
    span = family_size - wrap_base
    if span <= 0:  # family is {0} but the caller asked to skip seed 0
        return [(0, family_size)]
    start = wrap_base + (start - wrap_base) % span
    regions = [(start, family_size)]
    if start > wrap_base:
        regions.append((wrap_base, start))
    return regions


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
# The pick rule and the scan
# --------------------------------------------------------------------- #


def pick_seed(seeds: np.ndarray, values: np.ndarray, target: float) -> SeedSelection:
    """The scan's pick rule on a non-empty run of seeds in scan order.

    The first seed whose value meets ``target`` wins, with ``trials``
    counting the seeds up to it; otherwise the first best seed is returned
    unsatisfied, with ``trials`` counting every seed.
    """
    hits = np.flatnonzero(values >= target)
    satisfied = bool(hits.size)
    i = int(hits[0]) if satisfied else int(np.argmax(values))
    return SeedSelection(
        seed=int(seeds[i]),
        value=float(values[i]),
        trials=i + 1 if satisfied else int(seeds.size),
        satisfied=satisfied,
    )


def fold_scan(
    evaluated: Iterable[tuple[np.ndarray, np.ndarray]], target: float
) -> SeedSelection:
    """Fold evaluated seed blocks (in canonical order) into a scan outcome.

    :func:`pick_seed` over the whole stream, stopping at the first block
    that meets ``target``: ``trials`` counts only the seeds at or before
    the winner, independent of how the stream was chunked.
    """
    best = None
    trials = 0
    for seeds, vals in evaluated:
        sel = pick_seed(seeds, vals, target)
        if sel.satisfied:
            METRICS.inc("seed_scan.early_exits")
            METRICS.observe("seed_scan.early_exit_depth", trials + sel.trials)
            return replace(sel, trials=trials + sel.trials)
        trials += sel.trials
        if best is None or sel.value > best.value:
            best = sel
    return replace(best, trials=trials)


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


def select_seed_batch(
    family_size: int,
    batch_objective: BatchObjective,
    *,
    target: float,
    max_trials: int = 512,
    start: int = 0,
    chunk_size: int | None = None,
) -> SeedSelection:
    """Scan for the first seed whose objective meets ``target``.

    ``target`` is the value the existence argument guarantees some seed
    reaches.  At most ``max_trials`` seeds are evaluated, along the
    canonical order rotated by ``start`` (see :func:`scan_regions`) --
    stage searches start at 1 because seed 0 encodes the constant-zero
    hash (an all-or-nothing sampler that can be vacuously "good" without
    making progress at finite sizes).  Seed blocks ramp up to
    ``chunk_size`` seeds (``None`` means :data:`DEFAULT_SEED_CHUNK`); every
    chunk size returns the same :class:`SeedSelection` bit-for-bit,
    ``chunk_size=1`` included.
    """
    if family_size < 1:
        raise ValueError("family_size must be >= 1")
    if max_trials < 1:
        raise ValueError(f"max_trials must be >= 1, got {max_trials}")
    chunk = DEFAULT_SEED_CHUNK if chunk_size is None else chunk_size
    if chunk < 1:
        raise ValueError(f"seed chunk size must be >= 1, got {chunk}")
    t_sel = _obs.clock() if _obs._TRACING else 0.0
    blocks = iter_seed_blocks(scan_regions(family_size, start), max_trials, chunk)
    sel = fold_scan(_evaluate_stream(batch_objective, blocks), target)
    if _obs._TRACING:
        _obs.record_span(
            "seed.select",
            t_sel,
            {
                "family_size": family_size,
                "trials": sel.trials,
                "seed": sel.seed,
                "satisfied": sel.satisfied,
                "chunk": chunk,
            },
        )
    return sel
