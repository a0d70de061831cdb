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

:func:`sparsify` runs the stages over one item set; each section supplies
only its item view (which ids are hashed, which arcs go to the degree and
retention machines, how a degree is counted).  :func:`run_stage_seed_search`
is step 3.  The slack is
``lambda_x = kappa * (sqrt(e_x) + 1)`` with ``kappa`` starting at the
paper's nominal ``n^{0.1 delta}`` and escalating by a fixed factor if no
all-good seed is found within the scan budget (each escalation is recorded
as a fidelity event; see DESIGN.md "Concentration slack").  One scan judges
every seed at every rung of that ladder, so an escalation re-reads the
seeds already evaluated instead of scanning them again.  Because goodness
of all machines *implies* the stage invariants by the Lemma 10/11/17/18
algebra, the stage loop derives per-node bounds directly from the realised
``(mu_x, lambda_x)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from ..derand.strategies import SeedSelection, pick_seed, select_seed_batch
from ..graphs.graph import Graph
from ..hashing.kwise import KWiseHashFamily, make_family
from ..mpc.context import MPCContext
from ..mpc.partition import MachineGrouping, chunk_items_by_group
from ..obs import trace as _obs
from ..obs.metrics import METRICS
from .params import SLACK_ESCALATION, Params
from .records import StageRecord

__all__ = [
    "MachineGroupSpec",
    "SparsifyResult",
    "StageGoodness",
    "StageSearchOutcome",
    "run_stage_seed_search",
    "sparsify",
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
        if self.weights is not None:
            if self.weights.shape != self.unit_ids.shape:
                raise ValueError(f"group {self.name}: weights shape mismatch")
            if self.weights.size and self.weights.min() < 0:
                raise ValueError(f"group {self.name}: weights must be non-negative")

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


#: A weighted machine's float32 product decides its window verdict only when
#: it clears the bound by this multiple of ``(gamma32_{k+1} + gamma64_k) W``;
#: cells inside the band are re-summed the reference way.  The product and
#: the reference sum lie within ``gamma32_{k+1} W`` and ``gamma64_k W`` of
#: the exact sum, so they differ by at most the sum of the two, and 2 leaves
#: a factor-2 safety margin.
_ROUNDING_BAND = 2.0

#: The signed types a counted block may sum in, narrowest first.
_COUNT_TYPES = (np.int8, np.int16, np.int32, np.int64)


def _count_type(loads: np.ndarray) -> type:
    """The narrowest signed integer type that holds every row's load."""
    top = int(loads.max(initial=0))
    return next(t for t in _COUNT_TYPES if top <= np.iinfo(t).max)


def _gamma(k: np.ndarray, u: float) -> np.ndarray:
    """``gamma_k = k u / (1 - k u)``: any summation order of ``k`` terms
    lands within ``gamma_k * sum|w|`` of the exact sum (``k``, not ``k - 1``:
    a hair wider than the textbook bound).  Infinite once ``k u >= 1``."""
    ku = k * u
    return np.divide(ku, 1.0 - ku, out=np.full_like(ku, np.inf), where=ku < 1.0)


def _to_float32(x: np.ndarray, toward: float) -> np.ndarray:
    """``x`` rounded to float32 in the direction of ``toward`` (``-inf`` or
    ``inf``), so the narrow bound never lies past the wide one."""
    with np.errstate(over="ignore"):
        y = x.astype(np.float32)
    past = y > x if toward < 0 else y < x
    y[past] = np.nextafter(y[past], np.float32(toward))
    return y


def _outside(
    got: np.ndarray, hi: np.ndarray, lo: np.ndarray, up: bool, low: bool
) -> np.ndarray:
    """``got > hi or got < lo``, skipping a side that cannot bind."""
    bad = got > hi if up else None
    if low:
        below = got < lo
        bad = below if bad is None else np.logical_or(bad, below, out=bad)
    return np.zeros(got.shape, dtype=bool) if bad is None else bad


class _Block(NamedTuple):
    """One block of a stack's rows (its chunk rows, or its node rows) under
    one slack ladder: the rows that can fail and their window bounds.

    ``rows`` indexes the block; every other row is good at every rung for
    every seed.  ``hi`` / ``lo`` are the ``(L, rows)`` bounds at every rung
    (in the block's dtype for counted rows, float64 for summed ones),
    ``first`` the ``(hi, lo)`` columns a block's totals are first filtered
    by, ``last`` the ``(hi, lo)`` window outside which a summed cell fails
    at every rung (``None`` for counted rows), and ``up`` / ``low`` whether
    any row can fail above / below its window.
    """

    rows: np.ndarray
    hi: np.ndarray
    lo: np.ndarray
    first: tuple
    last: tuple | None
    up: bool
    low: bool


class _MachineStack:
    """The machines of several groups stacked over the stage's distinct ids.

    Rows are the chunk groups' machines, then the node twins' machines.
    ``matrix`` is the sparse ``(chunk machines, distinct ids)`` incidence --
    ones for counted groups, the item weights for summed ones -- so one
    product with a seed block's ``(ids, S)`` indicator yields every chunk
    machine's sampled total.  Its rows list each machine's items in the
    grouping's stable machine order, so it is written as CSR directly.
    ``merge`` is the ``(twin machines, chunk machines)`` 0/1 incidence of
    each node's chunk machines, one run of chunk rows per node: one more
    product sums the chunk rows into the node rows.  ``mu`` / ``base`` and
    the ``up`` / ``lo`` window flags are concatenated per row.

    A counted block sums in the narrowest signed integer type that holds
    every one of its rows' loads (int8 while chunk loads are <= 127), so its
    counts are exact.  A summed stack takes float32 weights and products, a
    filter in front of the float64 reference sums (see :meth:`ladder`).
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
        loads = np.concatenate([g.grouping.loads for g in self.groups])
        # Chunk row x holds items indptr[x] to indptr[x + 1] - 1 of the chunk
        # groups' items in machine order.
        indptr = np.zeros(self.split + 1, dtype=np.int64)
        np.cumsum(loads[: self.split], out=indptr[1:])
        cols = np.concatenate([c[g.grouping.item_order] for g, c, _, _ in direct])
        if weighted:
            self.dtypes = (np.float32, np.float32)
            weights = np.concatenate(
                [g.weights[g.grouping.item_order] for g, *_ in direct], dtype=np.float64
            )
            data = weights.astype(np.float32)
        else:
            self.dtypes = (
                _count_type(loads[: self.split]), _count_type(loads[self.split :])
            )
            data = np.ones(cols.size, dtype=self.dtypes[0])
        self.matrix = sp.csr_matrix((data, cols, indptr), shape=(self.split, n_ids))
        # runs[i][k]: node k of twin i sums chunk rows runs[i][k] to
        # runs[i][k + 1] - 1.
        runs = [
            g.twin_of.grouping.group_runs() + chunk_row[id(g.twin_of)] for g, *_ in twins
        ]
        self.merge = None
        if twins:
            sizes = np.concatenate([np.diff(r) for r in runs])
            self.merge = sp.csr_matrix(
                (
                    np.ones(int(sizes.sum()), dtype=self.dtypes[1]),
                    np.concatenate([np.arange(r[0], r[-1]) for r in runs]),
                    np.concatenate([[0], np.cumsum(sizes)]),
                ),
                shape=(int(offsets[-1]) - self.split, self.split),
            )
        self.mu = np.concatenate([mu for _, _, mu, _ in direct + twins])
        self.base = np.concatenate([base for _, _, _, base in direct + twins])
        self.up = np.repeat([g.check_upper for g in self.groups], machines)
        self.lo = np.repeat([g.check_lower for g in self.groups], machines)
        self._ladders: dict = {}
        # The largest value a row's product can take (the smallest is 0).
        self.reach = loads
        if weighted:
            # The product sums float32-rounded weights in float32 (gamma32,
            # one more term for rounding each weight), the reference sums
            # the float64 weights (gamma64); a node row's sum of its chunk
            # sums is one more summation order of its items.
            w = np.concatenate([g.weight_totals() for g in self.groups])
            k = loads.astype(np.float64)
            gap = _gamma(k + 1, 2.0**-24) + _gamma(k, 2.0**-53)
            self.margin = _ROUNDING_BAND * gap * w
            self.reach = w + self.margin
            # The reference sum of a row reads its items as one segment of
            # the machine-ordered items; a node row's is its chunk rows' run.
            self._items = (weights, cols)
            self._segments = (
                np.concatenate([indptr[:-1]] + [indptr[r[:-1]] for r in runs]),
                np.concatenate([indptr[1:]] + [indptr[r[1:]] for r in runs]),
            )

    def _bounds(self, kappas: tuple, rows: np.ndarray) -> tuple:
        """``(L, rows)`` window bounds of ``rows`` at every rung: float64 for
        summed rows; for counted rows clipped into ``[0, load]``, where every
        count lies, with an upper bound of -1 for a row whose lower bound
        exceeds its load (bad under every seed)."""
        lam = np.multiply.outer(kappas, self.base[rows])
        hi = np.where(self.up[rows], self.mu[rows] + lam + 1e-9, np.inf)
        lo = np.where(self.lo[rows], self.mu[rows] - lam - 1e-9, -np.inf)
        if not self.weighted:
            reach = self.reach[rows]
            lo = np.ceil(lo)
            hopeless = lo > reach
            lo = np.clip(lo, 0, reach)
            hi = np.clip(np.floor(hi), -1, reach)
            hi[hopeless] = -1
        return hi, lo

    def ladder(self, kappas: tuple) -> tuple[_Block, ...]:
        """The chunk block and the node block under a slack ladder, computed
        once per stage.

        A counted block keeps the cells outside rung 0 (``first``).  A
        summed block keeps the cells outside rung 0 shrunk by the margin
        (inside it the reference sum passes at every rung) and drops those
        outside the top rung grown by it (``last``: beyond it the reference
        sum fails at every rung).  Each edge is rounded outward, in float64
        and again to float32, so the float arithmetic cannot eat into the
        margin.  A row whose ``first`` window holds every value its total
        can take (``[0, reach]``) is never kept, so only the rows that can
        fail get bounds at all.
        """
        got = self._ladders.get(kappas)
        if got is not None:
            return got
        if any(b < a for a, b in zip(kappas, kappas[1:])):
            raise ValueError(f"slack ladder must not decrease: {kappas}")
        blocks = []
        spans = (np.arange(self.split), np.arange(self.split, self.mu.size))
        for span, dtype in zip(spans, self.dtypes):
            hi, lo = self._bounds(kappas[:1], span)
            first = (hi[0], lo[0])
            if self.weighted:
                m = self.margin[span]
                first = (
                    _to_float32(np.nextafter(hi[0] - m, -np.inf), -np.inf),
                    _to_float32(np.nextafter(lo[0] + m, np.inf), np.inf),
                )
            up, low = first[0] < self.reach[span], first[1] > 0
            rows = np.flatnonzero(up | low)
            hi, lo = self._bounds(kappas, span[rows])
            last = None
            if self.weighted:
                m = self.margin[span[rows]]
                last = (
                    _to_float32(np.nextafter(hi[-1] + m, np.inf), np.inf),
                    _to_float32(np.nextafter(lo[-1] - m, -np.inf), -np.inf),
                )
            else:
                hi, lo = hi.astype(dtype), lo.astype(dtype)
            blocks.append(_Block(
                rows, hi, lo,
                tuple(f[rows, None].astype(dtype) for f in first),
                last, bool(up.any()), bool(low.any()),
            ))
        got = self._ladders[kappas] = tuple(blocks)
        return got

    def totals(self, operand: np.ndarray) -> list[np.ndarray]:
        """Every row's sampled total under each seed: the chunk block
        ``(chunk machines, S)``, then the node block if the stack has twins.

        ``operand`` is the seed block's bool indicator transposed to C-order
        ``(ids, S)``: a counted stack reads it as int8 in place, a summed
        one widens it to float32.
        """
        chunk = self.matrix @ (
            operand.astype(np.float32) if self.weighted else operand.view(np.int8)
        )
        return [chunk] if self.merge is None else [chunk, self.merge @ chunk]

    def bad_counts(self, operand: np.ndarray, kappas: tuple) -> np.ndarray:
        """int64 ``(L, S)`` machines outside their window at each rung.

        ``operand`` is the seed block's ``(ids, S)`` indicator (see
        :meth:`totals`).  Windows only widen up the ladder, so a cell good
        at one rung is good at every later one: each rung re-judges only the
        cells still bad.
        """
        seeds = operand.shape[1]
        out = np.zeros((len(kappas), seeds), dtype=np.int64)
        for got, b, off in zip(self.totals(operand), self.ladder(kappas), (0, self.split)):
            if not b.rows.size:
                continue
            if b.rows.size < got.shape[0]:
                got = got[b.rows]
            cells = np.flatnonzero(_outside(got, *b.first, b.up, b.low))
            at, cols = np.divmod(cells, seeds)  # at indexes b.rows
            vals = got.ravel()[cells]
            if self.weighted:
                dead = _outside(vals, b.last[0][at], b.last[1][at], b.up, b.low)
                out += np.bincount(cols[dead], minlength=seeds)
                at, cols = at[~dead], cols[~dead]
                if at.size:
                    vals = self.reference_sums(b.rows[at] + off, cols, operand)
                judged = 0
            else:
                out[0] += np.bincount(cols, minlength=seeds)  # all outside rung 0
                judged = 1
            for j in range(judged, len(kappas)):
                if not at.size:
                    break
                keep = _outside(vals, b.hi[j][at], b.lo[j][at], b.up, b.low)
                at, cols, vals = at[keep], cols[keep], vals[keep]
                out[j] += np.bincount(cols, minlength=seeds)
        return out

    def reference_sums(
        self, rows: np.ndarray, cols: np.ndarray, operand: np.ndarray
    ) -> np.ndarray:
        """Sampled weight of machine ``rows[i]`` under block seed ``cols[i]``
        of the ``(ids, S)`` indicator ``operand``.

        Summed exactly as the per-item reference does: the machine's items
        in stable machine order, unsampled items contributing ``0.0``, one
        ``reduceat`` per machine -- the float rounding the window verdicts
        are defined by.  Only cells the margin cannot decide come here.  A
        node row's items are the run of its chunk machines' items, so the
        chunk groups' item orders (kept by their groupings) serve both.
        """
        weights, item_cols = self._items
        seg_lo, seg_hi = self._segments
        lo = seg_lo[rows]
        sizes = seg_hi[rows] - lo
        starts = np.cumsum(sizes) - sizes
        pos = np.arange(int(sizes.sum())) - np.repeat(starts - lo, sizes)
        values = weights[pos] * operand[item_cols[pos], np.repeat(cols, sizes)]
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

    Counted groups are exact counts, in the narrowest integer type their
    loads fit, against integer window bounds.  Weighted groups (the type-B
    retention windows) sum float32 weights in float32 as a filter; their
    verdicts are defined by the per-machine float64 ``reduceat`` sum, whose
    order and precision the products do not follow.  The two sums lie
    within ``gamma32_{k+1} W`` and ``gamma64_k W`` of the exact one, so a
    product farther than :data:`_ROUNDING_BAND` times their sum from each
    checked bound gives the reference verdict; the few cells the band
    cannot decide are re-summed the reference way.  Rows whose window holds
    every total they can reach are never judged.  Counts are therefore
    bit-identical to hashing and reducing every item per machine (pinned by
    the oracle tests), and rows reduce independently, so a single-seed call
    equals the matching column of a block call.
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
        operand = np.ascontiguousarray(sampled.T)
        for stack in (self.counted, self.summed):
            if stack is not None:
                good -= stack.bad_counts(operand, kappas)
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


@dataclass(frozen=True)
class SparsifyResult:
    """The sparsified item set (``E*`` or ``Q'``) plus the per-stage trace."""

    mask: np.ndarray  # bool over the item ids
    stages: tuple[StageRecord, ...]

    @property
    def num_stages(self) -> int:
        return len(self.stages)


def sparsify(
    g: Graph,
    mask: np.ndarray,
    num_stages: int,
    *,
    kind: str,
    degree_type: str,
    degree_lower: bool,
    machines: Callable[[np.ndarray], tuple],
    degrees: Callable[[np.ndarray], np.ndarray],
    retention0: np.ndarray,
    scale: float,
    params: Params,
    ctx: MPCContext,
    fidelity: list[str],
) -> SparsifyResult:
    """Subsample the items in ``mask`` over ``num_stages`` stages.

    Stage ``j`` keeps the items a seed's hash samples at rate ``n^{-delta}``,
    the seed found so that every machine of four goodness groups is good:
    the degree machines (type ``degree_type``, upper window, and the lower
    one too when ``degree_lower``), the type-B retention machines (lower
    window) and the node twins of both.  The item view is data:

    * ``machines(mask)`` -- the current items' degree arcs ``(groups,
      units)`` then retention arcs ``(groups, units, weights)``: group is
      the node a machine serves, unit the hashed item id, weights ``None``
      for a counted retention;
    * ``degrees(mask)`` -- each node's degree toward the items;
    * ``retention0`` -- each B node's stage-0 retention in unscaled units
      (0 off B), and ``scale`` the factor the retention weights carry.

    ``kind`` (``"edges"`` / ``"nodes"``) labels the stage records.  A stage
    whose seed samples no item is recorded and the previous set kept, so
    the result is empty only when ``mask`` is.
    """
    mask = mask.copy()
    if num_stages <= 0 or not mask.any():
        return SparsifyResult(mask, ())

    family = make_family(universe=max(mask.size, 2), k=params.c, min_q=params.min_q)
    prob = params.sample_prob(g.n)
    chunk = params.chunk_size(g.n)
    noun = kind[:-1]
    deg0 = degrees(mask).astype(np.float64)
    stages: list[StageRecord] = []
    for j in range(1, num_stages + 1):
        items = np.flatnonzero(mask)
        groups_d, units_d, groups_r, units_r, weights_r = machines(mask)
        grouping_d = chunk_items_by_group(groups_d, chunk)
        grouping_r = chunk_items_by_group(groups_r, chunk)

        # Distribution volume: one word per arc shipped to its group machine.
        ctx.charge_sort(
            "sparsify_distribute", words=int(groups_d.size + groups_r.size)
        )
        ctx.observe_loads(grouping_d.loads, f"type-{degree_type} {noun} distribution")
        ctx.observe_loads(grouping_r.loads, f"type-B {noun} distribution")

        spec_d = MachineGroupSpec(
            name=degree_type, grouping=grouping_d, unit_ids=units_d,
            check_upper=True, check_lower=degree_lower,
        )
        spec_r = MachineGroupSpec(
            name="B", grouping=grouping_r, unit_ids=units_r,
            weights=weights_r, check_upper=False, check_lower=True,
        )
        # Node-level windows: the per-node invariant the machine windows
        # are a proxy for (non-vacuous at finite sizes; see MachineGroupSpec).
        specs = [
            spec_d, spec_r, spec_d.node_twin(f"{degree_type}/node"),
            spec_r.node_twin("B/node"),
        ]
        outcome = run_stage_seed_search(
            family, prob, specs, params, g.n, fidelity,
            scan_start=1 + (j - 1) * params.max_scan_trials,
        )
        ctx.charge_seed_fix(family.seed_bits, "sparsify_seed")

        new_mask = np.zeros(mask.size, dtype=bool)
        new_mask[items[family.sample_indicator(outcome.seed, items, prob)]] = True
        ctx.charge_broadcast("sparsify_apply")

        # ---- invariant measurements -------------------------------------- #
        # The node twins (specs[2] / [3]) give the per-node implied bounds
        # directly; one virtual machine per node.
        deg_j = degrees(new_mask).astype(np.float64)
        bound_deg = np.bincount(
            specs[2].grouping.group_of_machine,
            weights=outcome.mus[2] + outcome.lambdas[2],
            minlength=g.n,
        )
        active = bound_deg > 0
        degree_bound_ratio = (
            float(np.max(deg_j[active] / bound_deg[active])) if active.any() else 0.0
        )

        # Retained weight per B node (scaled units).
        keep = new_mask[units_r]
        retained = np.bincount(
            groups_r[keep],
            weights=None if weights_r is None else weights_r[keep],
            minlength=g.n,
        ).astype(np.float64)
        lower = np.bincount(
            specs[3].grouping.group_of_machine,
            weights=np.maximum(outcome.mus[3] - outcome.lambdas[3], 0.0),
            minlength=g.n,
        )
        lb_active = lower > 0
        retention_bound_ratio = (
            float(np.min(retained[lb_active] / lower[lb_active]))
            if lb_active.any()
            else float("inf")
        )

        ideal = outcome.p_real**j
        with np.errstate(divide="ignore", invalid="ignore"):
            dz = deg0 > 0
            decay_meas = float(np.mean(deg_j[dz] / deg0[dz])) if dz.any() else 0.0
            rz = retention0 > 0
            ret_meas = (
                float(np.mean((retained[rz] / scale) / retention0[rz]))
                if rz.any()
                else 0.0
            )

        stages.append(
            StageRecord(
                stage=j,
                kind=kind,
                items_before=int(items.size),
                items_after=int(new_mask.sum()),
                sample_prob=outcome.p_real,
                num_machines=grouping_d.num_machines + grouping_r.num_machines,
                max_load=max(grouping_d.max_load(), grouping_r.max_load()),
                seed=outcome.seed,
                trials=outcome.trials,
                slack_kappa=outcome.kappa,
                escalations=outcome.escalations,
                all_good=outcome.all_good,
                degree_bound_ratio=degree_bound_ratio,
                degree_decay_measured=decay_meas,
                degree_decay_ideal=ideal,
                retention_bound_ratio=retention_bound_ratio,
                retention_decay_measured=ret_meas,
                retention_decay_ideal=ideal,
            )
        )

        if not new_mask.any():
            fidelity.append(
                f"{noun} sparsification stage {j} emptied the set; "
                f"keeping stage {j - 1} set"
            )
            break
        mask = new_mask

    return SparsifyResult(mask, tuple(stages))
