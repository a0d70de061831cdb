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
as a fidelity event; see DESIGN.md "Concentration slack").  Because goodness
of all machines *implies* the stage invariants by the Lemma 10/11/17/18
algebra, the caller can derive per-node bounds directly from the realised
``(mu_x, lambda_x)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..derand.estimators import certified_slacks
from ..derand.strategies import SeedSelection, select_seed_batch
from ..graphs.kernels import group_order_indptr
from ..hashing.kwise import KWiseHashFamily
from ..mpc.partition import MachineGrouping
from ..obs import trace as _obs
from ..obs.metrics import METRICS
from .params import Params

__all__ = [
    "MachineGroupSpec",
    "StageGoodness",
    "StageSearchOutcome",
    "node_level_spec",
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

    ``virtual=True`` marks a *node-level* goodness group: one "machine" per
    node holding the node's whole item set.  These do not correspond to
    physical machines (no space is charged for them); they enforce the
    per-node invariant window directly, which matters at finite sizes where
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
    virtual: bool = False

    def __post_init__(self) -> None:
        if self.unit_ids.shape[0] != self.grouping.num_items:
            raise ValueError(f"group {self.name}: unit_ids/grouping size mismatch")
        if self.weights is not None and self.weights.shape != self.unit_ids.shape:
            raise ValueError(f"group {self.name}: weights shape mismatch")

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


def node_level_spec(
    name: str,
    groups: np.ndarray,
    units: np.ndarray,
    *,
    weights: np.ndarray | None = None,
    check_upper: bool = True,
    check_lower: bool = True,
) -> MachineGroupSpec:
    """Build a virtual one-machine-per-node goodness group (see class doc)."""
    from ..mpc.partition import chunk_items_by_group

    whole = max(1, int(groups.size) + 1)  # chunk larger than any group
    return MachineGroupSpec(
        name=name,
        grouping=chunk_items_by_group(groups, whole),
        unit_ids=units,
        weights=weights,
        check_upper=check_upper,
        check_lower=check_lower,
        virtual=True,
    )


@dataclass(frozen=True)
class StageSearchOutcome:
    """Chosen seed plus realised window parameters, per group."""

    seed: int
    kappa: float
    escalations: int
    trials: int
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

    ``matrix`` is the sparse ``(machines, distinct ids)`` incidence -- int32
    ones for counted groups, the item weights for summed ones -- so one
    product with a seed block's ``(ids, S)`` indicator yields every
    machine's sampled total.  ``mu`` / ``base`` and the ``up`` / ``lo``
    window flags are concatenated per machine in the same row order.
    """

    def __init__(self, parts: list, n_ids: int, weighted: bool) -> None:
        groups = [g for g, _, _, _ in parts]
        machines = [g.grouping.num_machines for g in groups]
        offsets = np.concatenate([[0], np.cumsum(machines)])
        rows = np.concatenate(
            [g.grouping.machine_of_item + off for g, off in zip(groups, offsets)]
        )
        data = (
            np.concatenate([g.weights for g in groups], dtype=np.float64)
            if weighted
            else np.ones(rows.size, dtype=np.int32)
        )
        self.matrix = sp.csr_matrix(
            (data, (rows, np.concatenate([c for _, c, _, _ in parts]))),
            shape=(int(offsets[-1]), n_ids),
        )
        self.mu = np.concatenate([mu for _, _, mu, _ in parts])
        self.base = np.concatenate([base for _, _, _, base in parts])
        self.up = np.repeat([g.check_upper for g in groups], machines)
        self.lo = np.repeat([g.check_lower for g in groups], machines)
        self.any_up, self.any_lo = bool(self.up.any()), bool(self.lo.any())
        if weighted:
            # Any summation order of k terms lands within gamma * sum|w| of
            # the exact sum, gamma = k u / (1 - k u) (k, not k - 1: a hair
            # wider than the textbook bound, and nonzero for k = 1).
            ku = np.concatenate([g.grouping.loads for g in groups]) * 2.0**-53
            w_abs = np.bincount(rows, weights=np.abs(data), minlength=ku.size)
            self.margin = _ROUNDING_BAND * ku / (1.0 - ku) * w_abs
            self._parts = parts
            self._segments = None

    def within(self, got: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """(machines, S) bool ``lo <= got <= hi`` per row, skipping a side
        no machine of the stack checks (its bounds are all infinite)."""
        ok = got <= hi[:, None] if self.any_up else None
        if self.any_lo:
            above = got >= lo[:, None]
            ok = above if ok is None else np.logical_and(ok, above, out=ok)
        return np.ones(got.shape, dtype=bool) if ok is None else ok

    def reference_sums(
        self, rows: np.ndarray, cols: np.ndarray, sampled: np.ndarray
    ) -> np.ndarray:
        """Sampled weight of machine ``rows[i]`` under block seed ``cols[i]``.

        Summed exactly as the per-item reference does: the machine's items
        in stable machine order, unsampled items contributing ``0.0``, one
        ``reduceat`` per machine -- the float rounding the window verdicts
        are defined by.  Only cells inside the rounding band come here.
        """
        if self._segments is None:
            w_sorted, c_sorted = [], []
            for g, item_cols, _, _ in self._parts:
                order, _ = group_order_indptr(
                    g.grouping.machine_of_item, g.grouping.num_machines
                )
                w_sorted.append(g.weights[order])
                c_sorted.append(item_cols[order])
            loads = np.concatenate([g.grouping.loads for g, *_ in self._parts])
            self._segments = (
                np.concatenate(w_sorted),
                np.concatenate(c_sorted),
                np.concatenate([[0], np.cumsum(loads)]),
            )
        w_sorted, c_sorted, indptr = self._segments
        lo = indptr[rows]
        sizes = indptr[rows + 1] - lo
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
    machine's sampled total from one sparse product per incidence.

    Counted groups are exact int32 counts against integer window bounds.
    Weighted groups (the type-B retention windows) sum float64; their
    verdicts are defined by the per-machine ``reduceat`` order, which the
    product does not follow.  Both sums lie within ``gamma_k * W`` of the
    exact one, so a product sum farther than :data:`_ROUNDING_BAND` times
    that from each checked bound gives the reference verdict; the few
    cells inside the band are re-summed the reference way.  Counts are
    therefore bit-identical to hashing and reducing every item per machine
    (pinned by the oracle tests), and rows reduce independently, so a
    single-seed call equals the matching row of a block call.
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
        # Distinct ids by presence mask: O(items + max id), no sort.
        top = max((int(g.unit_ids.max(initial=-1)) for g in groups), default=-1)
        present = np.zeros(top + 1, dtype=bool)
        for g in groups:
            present[g.unit_ids] = True
        self.ids = np.flatnonzero(present)
        col_of = np.cumsum(present, dtype=np.int64) - 1
        parts = [
            (g, col_of[g.unit_ids], mu, base)
            for g, mu, base in zip(groups, mus, base_slacks)
            if g.grouping.num_machines
        ]
        counted = [p for p in parts if p[0].weights is None]
        summed = [p for p in parts if p[0].weights is not None]
        n_ids = int(self.ids.size)
        self.counted = _MachineStack(counted, n_ids, False) if counted else None
        self.summed = _MachineStack(summed, n_ids, True) if summed else None

    def counts(self, seeds: np.ndarray, kappa: float) -> np.ndarray:
        """float64[S] good-machine counts for a seed block at slack ``kappa``."""
        seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
        good = np.zeros(seeds.size, dtype=np.float64)
        sampled = self.family.indicator_batch(seeds, self.ids, self.threshold)
        stack = self.counted
        if stack is not None:
            # (machines, S) int32 counts; order="C" keeps scipy from
            # ravel-copying the transposed indicator on every call.
            got = stack.matrix @ sampled.T.astype(np.int32, order="C")
            lam = kappa * stack.base
            hi = np.where(
                stack.up, np.floor(stack.mu + lam + 1e-9), np.iinfo(np.int32).max
            ).astype(np.int32)
            lo = np.where(
                stack.lo, np.ceil(stack.mu - lam - 1e-9), np.iinfo(np.int32).min
            ).astype(np.int32)
            good += np.count_nonzero(stack.within(got, hi, lo), axis=0)
        stack = self.summed
        if stack is not None:
            got = stack.matrix @ sampled.T.astype(np.float64, order="C")
            lam = kappa * stack.base
            hi = np.where(stack.up, stack.mu + lam + 1e-9, np.inf)
            lo = np.where(stack.lo, stack.mu - lam - 1e-9, -np.inf)
            # The window shrunk / grown by the margin, each edge rounded
            # outward so the float arithmetic cannot eat into it: inside
            # the shrunk window the reference sum passes, outside the grown
            # one it fails, and only the band between is re-summed.
            m = stack.margin
            sure = stack.within(
                got, np.nextafter(hi - m, -np.inf), np.nextafter(lo + m, np.inf)
            )
            maybe = stack.within(
                got, np.nextafter(hi + m, np.inf), np.nextafter(lo - m, -np.inf)
            )
            good += np.count_nonzero(sure, axis=0)
            band = maybe > sure
            if band.any():
                rows, cols = np.nonzero(band)
                exact = stack.reference_sums(rows, cols, sampled)
                ok = (exact <= hi[rows]) & (exact >= lo[rows])
                good += np.bincount(cols, weights=ok, minlength=seeds.size)
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

    The goodness objective is evaluated in seed blocks (see
    :class:`StageGoodness`).
    """
    threshold = family.threshold(prob)
    p_real = threshold / family.range
    total_machines = sum(g.grouping.num_machines for g in groups)

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

    kappa = float(max(n, 2) ** (0.1 * params.delta_value))
    escalations = 0
    trials_total = 0
    best: SeedSelection | None = None
    t_search = _obs.clock() if _obs._TRACING else 0.0

    def _trace_outcome(outcome: StageSearchOutcome) -> StageSearchOutcome:
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

    while True:
        kap = kappa  # bind for the closure
        sel = select_seed_batch(
            family.size,
            lambda seeds: goodness.counts(seeds, kap),
            strategy="scan",
            target=float(total_machines),
            max_trials=params.max_scan_trials,
            start=max(1, scan_start),  # >= 1 skips the constant-zero hash
        )
        trials_total += sel.trials
        if best is None or sel.value > best.value:
            best = sel
        if sel.satisfied:
            lam = [kappa * b for b in base_slacks]
            return _trace_outcome(StageSearchOutcome(
                seed=sel.seed,
                kappa=kappa,
                escalations=escalations,
                trials=trials_total,
                all_good=True,
                p_real=p_real,
                selection=sel,
                mus=tuple(mus),
                lambdas=tuple(lam),
                certified_lambdas=certified,
            ))
        # Degraded modes are never silent: one count per scan that ends
        # without an all-good seed, one per slack escalation.
        METRICS.inc("stage.scan_exhausted")
        escalations += 1
        if escalations > params.max_slack_escalations:
            fidelity.append(
                f"stage seed search exhausted escalations "
                f"(best {best.value:.0f}/{total_machines} machines good)"
            )
            lam = [kappa * b for b in base_slacks]
            return _trace_outcome(StageSearchOutcome(
                seed=best.seed,
                kappa=kappa,
                escalations=escalations,
                trials=trials_total,
                all_good=False,
                p_real=p_real,
                selection=best,
                mus=tuple(mus),
                lambdas=tuple(lam),
                certified_lambdas=certified,
            ))
        METRICS.inc("stage.slack_escalations")
        fidelity.append(
            f"stage slack escalated to kappa={kappa * params.slack_escalation:.3f}"
        )
        kappa *= params.slack_escalation
