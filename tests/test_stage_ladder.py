"""One scan per stage for the whole slack ladder, against the re-scans it replaced.

:func:`repro.core.stage.run_stage_seed_search` scans once at ``kappa_0`` and
keeps every evaluated seed's good-machine counts at every rung; each
escalation then picks, from those counts, the seed a re-scan would pick.
:func:`rescan_stage_seed_search` below is the level-by-level loop it
replaced: one full scan per rung, with the per-item oracle as objective.
Everything an outcome reports must agree, except ``trials``, which no
longer counts the re-scanned seeds.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Params
from repro.core.params import SLACK_ESCALATION
from repro.core.stage import MachineGroupSpec, StageSearchOutcome, run_stage_seed_search
from repro.derand.strategies import select_seed_batch
from repro.hashing.kwise import KWiseHashFamily
from repro.mpc.partition import chunk_items_by_group
from repro.obs.metrics import METRICS

from test_stage_kernel import random_weights, reference_counts

COUNTERS = ("stage.scan_exhausted", "stage.slack_escalations")


def rescan_stage_seed_search(
    family, prob, groups, params, n, fidelity, scan_start=1
) -> tuple[StageSearchOutcome, int]:
    """The search with one full re-scan per escalated ``kappa``.

    Returns the outcome and the number of seeds the re-scans evaluated.
    """
    threshold = family.threshold(prob)
    p_real = threshold / family.range
    total_machines = sum(g.grouping.num_machines for g in groups)
    totals = [g.weight_totals() for g in groups]
    base_slacks = [np.sqrt(g.grouping.loads.astype(np.float64)) + 1.0 for g in groups]
    mus = [p_real * t for t in totals]

    kappa = float(max(n, 2) ** (0.1 * params.delta_value))
    escalations = trials_total = rescanned = 0
    best = None
    while True:
        kap = kappa  # bind for the closure
        sel = select_seed_batch(
            family.size,
            lambda seeds: reference_counts(
                family, threshold, groups, mus, base_slacks, kap, seeds
            ),
            target=float(total_machines),
            max_trials=params.max_scan_trials,
            start=max(1, scan_start),
        )
        trials_total += sel.trials
        rescanned += sel.trials if escalations else 0
        if best is None or sel.value > best.value:
            best = sel
        if sel.satisfied:
            chosen, all_good = sel, True
            break
        METRICS.inc("stage.scan_exhausted")
        escalations += 1
        if escalations > params.max_slack_escalations:
            fidelity.append(
                f"stage seed search exhausted escalations "
                f"(best {best.value:.0f}/{total_machines} machines good)"
            )
            chosen, all_good = best, False
            break
        METRICS.inc("stage.slack_escalations")
        fidelity.append(
            f"stage slack escalated to kappa={kappa * SLACK_ESCALATION:.3f}"
        )
        kappa *= SLACK_ESCALATION
    outcome = StageSearchOutcome(
        seed=chosen.seed,
        kappa=kappa,
        escalations=escalations,
        trials=trials_total,
        all_good=all_good,
        p_real=p_real,
        selection=chosen,
        mus=tuple(mus),
        lambdas=tuple(kappa * b for b in base_slacks),
    )
    return outcome, rescanned


def small_stage(rng):
    """Chunk groups with their node twins, windows of every side, and now
    and then a hopeless machine: 100 copies of one id, counted two-sided at
    ``p ~ 1/2``, so its count is 0 or 100 and no rung up to ``3.375 kappa_0``
    lets it in -- every rung is exhausted and ``best`` decides."""
    pool = rng.choice(257, size=int(rng.integers(2, 40)), replace=False)
    sides = [(True, False), (False, True), (True, True)]
    groups = []
    for i in range(int(rng.integers(1, 4))):
        n_items = int(rng.integers(1, 120))
        nodes = rng.integers(0, int(rng.integers(1, 10)), size=n_items)
        up, lo = sides[int(rng.integers(0, 3))]
        chunk = MachineGroupSpec(
            name=f"g{i}",
            grouping=chunk_items_by_group(nodes, int(rng.integers(1, 12))),
            unit_ids=rng.choice(pool, size=n_items).astype(np.int64),
            weights=random_weights(rng, n_items),
            check_upper=up, check_lower=lo,
        )
        groups += [chunk, chunk.node_twin(f"g{i}/node")]
    if rng.random() < 0.3:
        groups.append(MachineGroupSpec(
            name="hopeless",
            grouping=chunk_items_by_group(np.zeros(100, dtype=np.int64), 100),
            unit_ids=np.full(100, pool[0], dtype=np.int64),
        ))
    return groups


def compare_searches(seed: int, max_trials: int, max_escalations: int) -> str:
    """Run both searches on one small stage; assert they agree.  Returns
    which way the search ended: ``rung0``, ``escalated`` or ``exhausted``."""
    rng = np.random.default_rng(seed)
    family = KWiseHashFamily(q=257, k=int(rng.choice([1, 2])))
    groups = small_stage(rng)
    params = Params(max_scan_trials=max_trials, max_slack_escalations=max_escalations)
    prob = float(rng.uniform(0.3, 0.7))
    n, start = int(rng.integers(2, 5000)), int(rng.integers(0, family.size + 50))

    runs = []
    for search in (run_stage_seed_search, rescan_stage_seed_search):
        fidelity: list[str] = []
        before = METRICS.export()
        out = search(family, prob, groups, params, n, fidelity, scan_start=start)
        after = METRICS.export()
        deltas = [after.get(c, 0) - before.get(c, 0) for c in COUNTERS]
        runs.append((out, fidelity, deltas))
    (got, got_fid, got_deltas), ((want, rescanned), want_fid, want_deltas) = runs

    assert (got.seed, got.kappa, got.escalations, got.all_good) == (
        want.seed, want.kappa, want.escalations, want.all_good
    )
    assert got.selection == want.selection
    assert got.p_real == want.p_real
    for name in ("mus", "lambdas"):
        a, b = getattr(got, name), getattr(want, name)
        assert len(a) == len(b)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b)), name
    assert got_fid == want_fid
    assert got_deltas == want_deltas
    # Only the re-scanned seeds leave the trial count.
    assert got.trials == want.trials - rescanned
    if not want.all_good:
        return "exhausted"
    return "escalated" if want.escalations else "rung0"


@given(
    st.integers(0, 2**31),
    st.integers(1, 16),
    st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_ladder_matches_rescans(seed, max_trials, max_escalations):
    compare_searches(seed, max_trials, max_escalations)


def test_every_way_a_search_ends_is_compared():
    """The sweep reaches a rung-0 seed, an escalated seed, and the path
    where every rung is exhausted and the best seed over all rungs wins."""
    ends = {
        compare_searches(seed, 1 + seed % 16, seed % 4) for seed in range(60)
    }
    assert ends == {"rung0", "escalated", "exhausted"}
