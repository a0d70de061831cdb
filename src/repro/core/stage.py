"""Shared machinery for one derandomized subsampling stage.

Both sparsification procedures (edges, Section 3.2; nodes, Section 4.2) have
the same skeleton per stage ``j``:

1. distribute each node's current items across a *machine group* with
   ``chunk = n^{4 delta}`` items per machine ("type A/B/Q machines");
2. declare a machine *good* for a hash function ``h`` when its sampled-item
   statistic lies within ``mu_x +- lambda_x`` (upper-only for pure degree
   bounds, lower-only for weight-retention bounds);
3. deterministically find a seed making **all** machines good;
4. keep the sampled items.

This module implements steps 2-3 generically.  The slack is
``lambda_x = kappa * (sqrt(e_x) + 1)`` with ``kappa`` starting at the
paper's nominal ``n^{0.1 delta}`` and escalating by a fixed factor if no
all-good seed is found within the scan budget (each escalation is recorded
as a fidelity event; see DESIGN.md "Concentration slack").  One scan judges
every seed at every rung of that ladder, so an escalation re-reads the
seeds already evaluated instead of scanning them again.  Because goodness
of all machines *implies* the stage invariants by the Lemma 10/11/17/18
algebra, the caller can derive per-node bounds directly from the realised
``(mu_x, lambda_x)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ..derand.estimators import certified_slacks
from ..derand.strategies import SeedSelection, pick_seed, select_seed_batch
from ..hashing.kwise import KWiseHashFamily
from ..mpc.partition import MachineGrouping
from ..obs import trace as _obs
from ..obs.metrics import METRICS
from .params import SLACK_ESCALATION, Params

__all__ = [
    "MachineGroupSpec",
    "StageGoodness",
    "StageSearchOutcome",
    "run_stage_seed_search",
]


@dataclass
class MachineGroupSpec:
    """One machine group participating in a stage's goodness test.

    ``unit_ids[i]`` is the hashed unit (edge id or node id) of item ``i``;
    ``weights`` (optional) are per-item weights in ``(0, 1]`` for weighted
    retention statistics (the MIS type-B machines sum ``n^{(i-1)delta}/d(u)``
    terms); ``check_upper`` / ``check_lower`` select which side of the
    concentration window this group enforces.

    A *node-level* goodness group (built by :meth:`node_twin`, linked to its
    chunk group by ``twin_of``) has one "machine" per node holding the
    node's whole item set.  These do not correspond to physical machines
    (no space is charged for them); they enforce the per-node invariant
    window directly, which matters at finite sizes where
    ``chunk = n^{4 delta}`` is so small that per-chunk windows are vacuous
    (asymptotically the chunk windows imply the node windows -- that *is*
    the Lemma 10/11/17/18 summation -- so this adds nothing in the limit).
    """

    name: str
    grouping: MachineGrouping
    unit_ids: np.ndarray
    weights: np.ndarray | None = None
    check_upper: bool = True
    check_lower: bool = True
    twin_of: MachineGroupSpec | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.unit_ids.shape[0] != self.grouping.num_items:
            raise ValueError(f"group {self.name}: unit_ids/grouping size mismatch")
        if self.weights is not None and self.weights.shape != self.unit_ids.shape:
            raise ValueError(f"group {self.name}: weights shape mismatch")

    def node_twin(self, name: str) -> MachineGroupSpec:
        """The node-level twin of this chunk group: the same items, weights
        and window sides on one machine per node (``grouping.per_group``).
        The kernel sums each node's chunk rows instead of its items."""
        return MachineGroupSpec(
            name=name,
            grouping=self.grouping.per_group(),
            unit_ids=self.unit_ids,
            weights=self.weights,
            check_upper=self.check_upper,
            check_lower=self.check_lower,
            twin_of=self,
        )

    def weight_totals(self) -> np.ndarray:
        """Per-machine total weight (item count if unweighted)."""
        w = (
            self.weights
            if self.weights is not None
            else np.ones(self.grouping.num_items, dtype=np.float64)
        )
        return np.bincount(
            self.grouping.machine_of_item,
            weights=w,
            minlength=self.grouping.num_machines,
        )


@dataclass(frozen=True)
class StageSearchOutcome:
    """Chosen seed plus realised window parameters, per group."""

    seed: int
    kappa: float
    escalations: int
    trials: int  # seeds evaluated: one scan serves every rung of the ladder
    all_good: bool
    p_real: float
    selection: SeedSelection
    # Per group (same order as the input specs): realised per-machine
    # expectation mu_x and slack lambda_x under the chosen kappa.
    mus: tuple[np.ndarray, ...]
    lambdas: tuple[np.ndarray, ...]
    # Per group: the slack the pairwise Chebyshev bound *certifies* for an
    # E[#bad] < 1 budget at these finite loads (vectorised per machine; see
    # repro.derand.estimators).  Reporting/diagnostics only -- the search
    # window itself uses the paper's nominal-kappa schedule above.
    certified_lambdas: tuple[np.ndarray, ...] = ()


#: A weighted machine's sparse-product sum decides its window verdict only
#: when it clears the bound by this multiple of the rounding bound
#: ``gamma_k * W``; cells inside the band are re-summed the reference way.
#: Two sums each within ``gamma_k * W`` of the exact one differ by at most
#: twice that, so 4 leaves a factor-2 safety margin.
_ROUNDING_BAND = 4.0


class _MachineStack:
    """The machines of several groups stacked over the stage's distinct ids.

    Rows are the chunk groups' machines, then the node twins' machines.
    ``matrix`` is the sparse ``(chunk machines, distinct ids)`` incidence --
    int32 ones for counted groups, the item weights for summed ones -- so
    one product with a seed block's ``(ids, S)`` indicator yields every
    chunk machine's sampled total.  ``merge`` is the ``(twin machines,
    chunk machines)`` 0/1 incidence of each node's chunk machines: one more
    product sums the chunk rows into the node rows.  ``mu`` / ``base`` and
    the ``up`` / ``lo`` window flags are concatenated per row.
    """

    def __init__(self, parts: list, n_ids: int, weighted: bool) -> None:
        direct = [p for p in parts if p[0].twin_of is None]
        twins = [p for p in parts if p[0].twin_of is not None]
        self.groups = [g for g, *_ in direct + twins]
        self.weighted = weighted
        machines = [g.grouping.num_machines for g in self.groups]
        offsets = np.concatenate([[0], np.cumsum(machines)]).astype(np.int64)
        self.split = int(offsets[len(direct)])  # the first twin row
        # The twin link is explicit: a twin's rows are its chunk group's.
        chunk_row = {id(g): int(off) for (g, *_), off in zip(direct, offsets)}
        for g, *_ in twins:
            if id(g.twin_of) not in chunk_row:
                raise ValueError(f"group {g.name}: its chunk group is not in the stage")
        rows = np.concatenate(
            [g.grouping.machine_of_item + off for (g, *_), off in zip(direct, offsets)]
        )
        dtype = np.float64 if weighted else np.int32
        data = (
            np.concatenate([g.weights for g, *_ in direct], dtype=np.float64)
            if weighted
            else np.ones(rows.size, dtype=np.int32)
        )
        self.matrix = sp.csr_matrix(
            (data, (rows, np.concatenate([c for _, c, _, _ in direct]))),
            shape=(self.split, n_ids),
        )
        self.merge = None
        if twins:
            node_of, chunk_of = [], []
            for (g, *_), off in zip(twins, offsets[len(direct):]):
                runs = g.twin_of.grouping.group_runs()
                node_of.append(np.repeat(np.arange(runs.size - 1), np.diff(runs)) + off)
                chunk_of.append(np.arange(runs[-1]) + chunk_row[id(g.twin_of)])
            node_of = np.concatenate(node_of) - self.split
            ones = np.ones(node_of.size, dtype=dtype)
            self.merge = sp.csr_matrix(
                (ones, (node_of, np.concatenate(chunk_of))),
                shape=(int(offsets[-1]) - self.split, self.split),
            )
        self.mu = np.concatenate([mu for _, _, mu, _ in direct + twins])
        self.base = np.concatenate([base for _, _, _, base in direct + twins])
        self.up = np.repeat([g.check_upper for g in self.groups], machines)
        self.lo = np.repeat([g.check_lower for g in self.groups], machines)
        self.any_up, self.any_lo = bool(self.up.any()), bool(self.lo.any())
        self._ladders: dict = {}
        if weighted:
            # Any summation order of k terms lands within gamma * sum|w| of
            # the exact sum, gamma = k u / (1 - k u) (k, not k - 1: a hair
            # wider than the textbook bound, and nonzero for k = 1).  A node
            # row sums its chunk rows, so it is one more such order.
            ku = np.concatenate([g.grouping.loads for g in self.groups]) * 2.0**-53
            w_abs = np.bincount(rows, weights=np.abs(data), minlength=self.split)
            if self.merge is not None:
                w_abs = np.concatenate([w_abs, self.merge @ w_abs])
            self.margin = _ROUNDING_BAND * ku / (1.0 - ku) * w_abs
            self._direct = direct
            self._segments = None

    def ladder(self, kappas: tuple) -> tuple:
        """Window bounds of every rung, computed once per stage.

        Returns ``(hi, lo, first, last)``: ``(L, machines)`` upper and lower
        bounds (int32 for counted rows, float64 for summed ones) and the two
        windows a block is first filtered by.  A counted block keeps the
        cells outside rung 0 (``first``).  A summed block keeps the cells
        outside rung 0 shrunk by the margin (``first``: inside it the
        reference sum passes at every rung) and drops those outside the top
        rung grown by it (``last``: beyond it the reference sum fails at
        every rung).  Each edge is rounded outward, so the float arithmetic
        cannot eat into the margin.
        """
        got = self._ladders.get(kappas)
        if got is not None:
            return got
        if any(b < a for a, b in zip(kappas, kappas[1:])):
            raise ValueError(f"slack ladder must not decrease: {kappas}")
        hi, lo = [], []
        for kappa in kappas:
            lam = kappa * self.base
            if self.weighted:
                hi.append(np.where(self.up, self.mu + lam + 1e-9, np.inf))
                lo.append(np.where(self.lo, self.mu - lam - 1e-9, -np.inf))
            else:
                hi.append(np.where(
                    self.up, np.floor(self.mu + lam + 1e-9), np.iinfo(np.int32).max
                ).astype(np.int32))
                lo.append(np.where(
                    self.lo, np.ceil(self.mu - lam - 1e-9), np.iinfo(np.int32).min
                ).astype(np.int32))
        hi, lo = np.array(hi), np.array(lo)
        first, last = (hi[0], lo[0]), None
        if self.weighted:
            m = self.margin
            first = (np.nextafter(hi[0] - m, -np.inf), np.nextafter(lo[0] + m, np.inf))
            last = (np.nextafter(hi[-1] + m, np.inf), np.nextafter(lo[-1] - m, -np.inf))
        got = self._ladders[kappas] = (hi, lo, first, last)
        return got

    def outside(self, got: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """``got > hi or got < lo``, skipping a side no machine of the stack
        checks (its bounds are all infinite)."""
        bad = got > hi if self.any_up else None
        if self.any_lo:
            below = got < lo
            bad = below if bad is None else np.logical_or(bad, below, out=bad)
        return np.zeros(got.shape, dtype=bool) if bad is None else bad

    def bad_counts(self, sampled: np.ndarray, kappas: tuple) -> np.ndarray:
        """int64 ``(L, S)`` machines outside their window at each rung.

        Windows only widen up the ladder, so a cell good at one rung is good
        at every later one: each rung re-judges only the cells still bad.
        """
        seeds = sampled.shape[0]
        out = np.zeros((len(kappas), seeds), dtype=np.int64)
        hi, lo, first, last = self.ladder(kappas)
        # (machines, S) totals.  The indicator is transposed as bytes and
        # then widened: cheaper than a strided widening copy, and a C-order
        # operand keeps scipy from ravel-copying it again.
        chunk = self.matrix @ np.ascontiguousarray(sampled.T).astype(self.matrix.dtype)
        blocks = [(chunk, 0)]
        if self.merge is not None:
            blocks.append((self.merge @ chunk, self.split))
        for got, off in blocks:
            at = slice(off, off + got.shape[0])
            cells = np.flatnonzero(
                self.outside(got, first[0][at, None], first[1][at, None])
            )
            rows, cols = np.divmod(cells, seeds)
            rows += off
            vals = got.ravel()[cells]
            if self.weighted:
                dead = self.outside(vals, last[0][rows], last[1][rows])
                out += np.bincount(cols[dead], minlength=seeds)
                rows, cols, vals = rows[~dead], cols[~dead], vals[~dead]
                if rows.size:
                    vals = self.reference_sums(rows, cols, sampled)
                judged = 0
            else:
                out[0] += np.bincount(cols, minlength=seeds)  # all outside rung 0
                judged = 1
            for j in range(judged, len(kappas)):
                if not rows.size:
                    break
                keep = self.outside(vals, hi[j][rows], lo[j][rows])
                rows, cols, vals = rows[keep], cols[keep], vals[keep]
                out[j] += np.bincount(cols, minlength=seeds)
        return out

    def reference_sums(
        self, rows: np.ndarray, cols: np.ndarray, sampled: np.ndarray
    ) -> np.ndarray:
        """Sampled weight of machine ``rows[i]`` under block seed ``cols[i]``.

        Summed exactly as the per-item reference does: the machine's items
        in stable machine order, unsampled items contributing ``0.0``, one
        ``reduceat`` per machine -- the float rounding the window verdicts
        are defined by.  Only cells the margin cannot decide come here.  A
        node row's items are the run of its chunk machines' items, so the
        chunk groups' item orders (kept by their groupings) serve both.
        """
        if self._segments is None:
            w_sorted, c_sorted, seg_lo, seg_hi = [], [], [], []
            first_item, base = {}, 0
            for g, item_cols, _, _ in self._direct:
                order = g.grouping.item_order
                w_sorted.append(g.weights[order])
                c_sorted.append(item_cols[order])
                indptr = base + np.concatenate([[0], np.cumsum(g.grouping.loads)])
                first_item[id(g)] = indptr
                seg_lo.append(indptr[:-1])
                seg_hi.append(indptr[1:])
                base = int(indptr[-1])
            for g in self.groups[len(self._direct):]:
                indptr = first_item[id(g.twin_of)][g.twin_of.grouping.group_runs()]
                seg_lo.append(indptr[:-1])
                seg_hi.append(indptr[1:])
            self._segments = tuple(
                np.concatenate(a) for a in (w_sorted, c_sorted, seg_lo, seg_hi)
            )
        w_sorted, c_sorted, seg_lo, seg_hi = self._segments
        lo = seg_lo[rows]
        sizes = seg_hi[rows] - lo
        starts = np.cumsum(sizes) - sizes
        pos = np.arange(int(sizes.sum())) - np.repeat(starts - lo, sizes)
        values = w_sorted[pos] * sampled[np.repeat(cols, sizes), c_sorted[pos]]
        sums = np.zeros(rows.size, dtype=np.float64)
        nonempty = sizes > 0
        if values.size:
            sums[nonempty] = np.add.reduceat(values, starts[nonempty])
        return sums


class StageGoodness:
    """Batched all-machines-good counting kernel for one stage search.

    Built once per stage: the stage's distinct unit ids, and the machines
    of every group stacked into two sparse incidences over them (counted
    and weighted groups).  A seed block then hashes each distinct id once
    (``indicator_batch`` on the ids, not on every item) and gets every
    chunk machine's sampled total from one sparse product per incidence;
    the node twins' totals are the sums of their chunk rows (one more,
    much smaller, product).  One block is judged at every rung of the
    slack ladder at once.

    Counted groups are exact int32 counts against integer window bounds.
    Weighted groups (the type-B retention windows) sum float64; their
    verdicts are defined by the per-machine ``reduceat`` order, which the
    products do not follow.  Both sums lie within ``gamma_k * W`` of the
    exact one, so a product sum farther than :data:`_ROUNDING_BAND` times
    that from each checked bound gives the reference verdict; the few
    cells the band cannot decide are re-summed the reference way.  Counts
    are therefore bit-identical to hashing and reducing every item per
    machine (pinned by the oracle tests), and rows reduce independently,
    so a single-seed call equals the matching column of a block call.
    """

    def __init__(
        self,
        family: KWiseHashFamily,
        threshold: int,
        groups: list[MachineGroupSpec],
        mus: list[np.ndarray],
        base_slacks: list[np.ndarray],
    ) -> None:
        self.family = family
        self.threshold = threshold
        self.machines = sum(g.grouping.num_machines for g in groups)
        # Distinct ids by presence mask: O(items + max id), no sort.
        direct = [g for g in groups if g.twin_of is None]
        top = max((int(g.unit_ids.max(initial=-1)) for g in direct), default=-1)
        present = np.zeros(top + 1, dtype=bool)
        for g in direct:
            present[g.unit_ids] = True
        self.ids = np.flatnonzero(present)
        col_of = np.cumsum(present, dtype=np.int64) - 1
        parts = [
            (g, col_of[g.unit_ids] if g.twin_of is None else None, mu, base)
            for g, mu, base in zip(groups, mus, base_slacks)
            if g.grouping.num_machines
        ]
        counted = [p for p in parts if p[0].weights is None]
        summed = [p for p in parts if p[0].weights is not None]
        n_ids = int(self.ids.size)
        self.counted = _MachineStack(counted, n_ids, False) if counted else None
        self.summed = _MachineStack(summed, n_ids, True) if summed else None

    def counts(self, seeds: np.ndarray, kappas: Sequence[float]) -> np.ndarray:
        """float64 ``(L, S)`` good-machine counts of a seed block at each
        rung of the non-decreasing slack ladder ``kappas``."""
        seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
        kappas = tuple(float(k) for k in kappas)
        good = np.full((len(kappas), seeds.size), float(self.machines))
        sampled = self.family.indicator_batch(seeds, self.ids, self.threshold)
        for stack in (self.counted, self.summed):
            if stack is not None:
                good -= stack.bad_counts(sampled, kappas)
        return good


def run_stage_seed_search(
    family: KWiseHashFamily,
    prob: float,
    groups: list[MachineGroupSpec],
    params: Params,
    n: int,
    fidelity: list[str],
    scan_start: int = 1,
) -> StageSearchOutcome:
    """Find a seed making all machines in all groups good (Sections 3.2/4.2).

    Deterministic: the scan order and the escalation schedule are fixed.
    ``scan_start`` gives each stage a *disjoint* region of the canonical seed
    order -- the deterministic analogue of the paper drawing a fresh
    independent hash function per stage.  (Re-scanning the previous stage's
    region could re-select the seed that defined the current item set, whose
    sampling predicate is idempotent on it and therefore makes no progress.)
    The scan wraps around past the end of its region, so late stages still
    cover the whole family before giving up.

    The slack ladder is ``kappa_0 * SLACK_ESCALATION^j`` for
    ``j <= max_slack_escalations``.  One scan at ``kappa_0`` evaluates each
    seed once, at every rung (see :class:`StageGoodness`).  When it finds no
    all-good seed, each escalation applies the scan's own rule
    (:func:`~repro.derand.strategies.pick_seed`) to the values already
    computed at its rung, so it picks the seed a re-scan of the same seeds
    would; ``trials`` counts the seeds evaluated.
    """
    threshold = family.threshold(prob)
    p_real = threshold / family.range
    total_machines = sum(g.grouping.num_machines for g in groups)
    target = float(total_machines)

    # Precompute per-group static data.
    totals = [g.weight_totals() for g in groups]
    base_slacks = [
        np.sqrt(g.grouping.loads.astype(np.float64)) + 1.0 for g in groups
    ]
    mus = [p_real * t for t in totals]
    certified = tuple(
        certified_slacks(g.grouping.loads, p_real) for g in groups
    )

    goodness = StageGoodness(family, threshold, groups, mus, base_slacks)
    kappas = [float(max(n, 2) ** (0.1 * params.delta_value))]
    for _ in range(params.max_slack_escalations):
        kappas.append(kappas[-1] * SLACK_ESCALATION)
    kappas = tuple(kappas)
    t_search = _obs.clock() if _obs._TRACING else 0.0

    seen: list[np.ndarray] = []
    rungs: list[np.ndarray] = []

    def rung0(seeds: np.ndarray) -> np.ndarray:
        block = goodness.counts(seeds, kappas)
        seen.append(seeds)
        rungs.append(block)
        return block[0]

    scanned = select_seed_batch(
        family.size,
        rung0,
        target=target,
        max_trials=params.max_scan_trials,
        start=max(1, scan_start),  # >= 1 skips the constant-zero hash
    )
    sel = best = scanned
    level = 0
    if not sel.satisfied:
        seeds, values = np.concatenate(seen), np.concatenate(rungs, axis=1)
    while not sel.satisfied:
        # Degraded modes are never silent: one count per rung whose seeds
        # hold no all-good one, one per slack escalation.
        METRICS.inc("stage.scan_exhausted")
        if level >= params.max_slack_escalations:
            fidelity.append(
                f"stage seed search exhausted escalations "
                f"(best {best.value:.0f}/{total_machines} machines good)"
            )
            break
        level += 1
        METRICS.inc("stage.slack_escalations")
        fidelity.append(f"stage slack escalated to kappa={kappas[level]:.3f}")
        sel = pick_seed(seeds, values[level], target)
        if sel.value > best.value:
            best = sel

    chosen = sel if sel.satisfied else best
    outcome = StageSearchOutcome(
        seed=chosen.seed,
        kappa=kappas[level],
        escalations=level if sel.satisfied else level + 1,
        trials=scanned.trials,  # every seed evaluated, once
        all_good=sel.satisfied,
        p_real=p_real,
        selection=chosen,
        mus=tuple(mus),
        lambdas=tuple(kappas[level] * b for b in base_slacks),
        certified_lambdas=certified,
    )
    if _obs._TRACING:
        _obs.record_span(
            "stage.seed_search",
            t_search,
            {
                "machines": total_machines,
                "groups": len(groups),
                "trials": outcome.trials,
                "escalations": outcome.escalations,
                "all_good": outcome.all_good,
                "seed": outcome.seed,
            },
        )
    return outcome
