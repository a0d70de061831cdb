"""The sparse stage-goodness kernel against the per-item reference it replaced.

:class:`repro.core.stage.StageGoodness` hashes each distinct unit id once per
seed block, counts chunk machines with sparse products in the narrowest
integer type their loads fit, sums each node twin's chunk rows, judges only
the rows that can fail, and judges every rung of a slack ladder in one
call; weighted windows go through a float32 filter with an exact float64
``reduceat`` fallback.  The oracle below is the straightforward kernel: hash
every item, sort items by machine, and reduce each machine's segment
(integer counts for unweighted groups, a float64 ``reduceat`` for weighted
ones), once per slack.  Good-machine counts must agree exactly for every
seed block and every rung.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Params
from repro.core import stage as stage_mod
from repro.core.matching import deterministic_maximal_matching
from repro.core.stage import MachineGroupSpec, StageGoodness
from repro.graphs import gnp_random_graph
from repro.graphs.kernels import group_order_indptr
from repro.hashing.kwise import KWiseHashFamily
from repro.mpc.partition import chunk_items_by_group
from repro.obs.metrics import METRICS

from phase_oracle import segment_count_2d

Q = 257  # digit 0 of the seed rolls over every 257 seeds
THRESHOLD = 77
KAPPAS = (1.0, 1.5, 3.375)


def segment_sum_2d(values, indptr):
    """Per-machine float64 sums along axis 1: one ``reduceat`` per segment."""
    out = np.zeros((values.shape[0], indptr.size - 1), dtype=values.dtype)
    nonempty = indptr[:-1] < indptr[1:]
    if values.shape[1]:
        out[:, nonempty] = np.add.reduceat(values, indptr[:-1][nonempty], axis=1)
    return out


def reference_counts(family, threshold, groups, mus, bases, kappa, seeds):
    """float64[S] good machines: hash every item, reduce per machine."""
    good = np.zeros(seeds.size, dtype=np.float64)
    for g, mu, base in zip(groups, mus, bases):
        order, indptr = group_order_indptr(
            g.grouping.machine_of_item, g.grouping.num_machines
        )
        sampled = family.indicator_batch(seeds, g.unit_ids[order], threshold)
        lam = kappa * base
        ok = np.ones((seeds.size, g.grouping.num_machines), dtype=bool)
        if g.weights is not None:
            got = segment_sum_2d(g.weights[order][None, :] * sampled, indptr)
            if g.check_upper:
                ok &= got <= mu[None, :] + lam[None, :] + 1e-9
            if g.check_lower:
                ok &= got >= mu[None, :] - lam[None, :] - 1e-9
        else:
            got = segment_count_2d(sampled, indptr)
            if g.check_upper:
                ok &= got <= np.floor(mu + lam + 1e-9).astype(np.int32)[None, :]
            if g.check_lower:
                ok &= got >= np.ceil(mu - lam - 1e-9).astype(np.int32)[None, :]
        good += ok.sum(axis=1)
    return good


def node_level_spec(name, groups, units, *, weights=None, up=True, lo=True):
    """A stand-alone one-machine-per-node group over its own sorted grouping
    (a chunk larger than any group): what a node twin's derived grouping
    and rows must equal."""
    return MachineGroupSpec(
        name=name,
        grouping=chunk_items_by_group(groups, int(groups.size) + 1),
        unit_ids=units, weights=weights, check_upper=up, check_lower=lo,
    )


def random_weights(rng, n_items):
    """None, or weights in (0, 1] spanning six decades."""
    return 10.0 ** rng.uniform(-6.0, 0.0, n_items) if rng.random() < 0.5 else None


def random_stage(rng, k):
    """A stage with every group shape the samplers produce, and then some.

    Ids come from one small pool, so groups share ids and a machine can
    hold the same id twice; group ids are unsorted; windows are
    upper-only, lower-only or two-sided.  Most chunk groups come with their
    node twin, as the samplers build them (weighted twins included); the
    rest stand alone, next to stand-alone node-level groups and an empty
    group.
    """
    family = KWiseHashFamily(q=Q, k=k)
    pool = rng.choice(Q, size=int(rng.integers(1, 60)), replace=False)
    sides = [(True, False), (False, True), (True, True)]
    groups = []
    for i in range(int(rng.integers(2, 6))):
        n_items = 0 if i == 1 else int(rng.integers(1, 150))
        nodes = rng.integers(0, int(rng.integers(1, 12)), size=n_items)
        units = rng.choice(pool, size=n_items).astype(np.int64)
        weights = random_weights(rng, n_items)
        up, lo = sides[int(rng.integers(0, 3))]
        kind = rng.random()
        if kind < 0.2:
            groups.append(node_level_spec(
                f"g{i}/alone", nodes, units, weights=weights, up=up, lo=lo
            ))
            continue
        chunk = MachineGroupSpec(
            name=f"g{i}",
            grouping=chunk_items_by_group(nodes, int(rng.integers(1, 9))),
            unit_ids=units, weights=weights, check_upper=up, check_lower=lo,
        )
        groups.append(chunk)
        if kind < 0.8:
            groups.append(chunk.node_twin(f"g{i}/node"))
    order = rng.permutation(len(groups))  # a twin may precede its chunk group
    groups = [groups[i] for i in order]
    p = THRESHOLD / Q
    mus = [p * g.weight_totals() for g in groups]
    bases = [rng.random(g.grouping.num_machines) * 2.0 + 0.2 for g in groups]
    return family, groups, mus, bases


def ladder(kappa_0, rungs):
    """``kappa_0 * 1.5^j`` for ``j < rungs``, by repeated multiplication."""
    kappas = [kappa_0]
    for _ in range(rungs - 1):
        kappas.append(kappas[-1] * 1.5)
    return tuple(kappas)


def random_ladder(rng):
    return ladder(float(rng.uniform(0.3, 2.0)), int(rng.integers(1, 5)))


def seed_blocks(rng, family):
    """Contiguous, digit-0 rollover, arbitrary, and single-seed blocks."""
    start = int(rng.integers(1, family.size - 80))
    roll = int(rng.integers(1, min(family.size // Q, 50) + 1)) * Q
    blocks = [
        np.arange(start, start + int(rng.integers(2, 80))),
        np.arange(roll - 7, min(roll + 13, family.size)),
        rng.integers(0, family.size, size=int(rng.integers(2, 60))),
        np.array([int(rng.integers(0, family.size))]),
    ]
    return [b.astype(np.int64) for b in blocks if b.size]


def assert_counts_match(family, threshold, groups, mus, bases, kappas, blocks):
    """Assert the kernel matches the oracle on every block and rung, and
    return the kernel."""
    goodness = StageGoodness(family, threshold, groups, mus, bases)
    for seeds in blocks:
        want = np.array([
            reference_counts(family, threshold, groups, mus, bases, kappa, seeds)
            for kappa in kappas
        ])
        got = goodness.counts(seeds, kappas)
        assert got.shape == (len(kappas), seeds.size)
        assert np.array_equal(got, want)
        # Rows reduce independently: one seed equals its column of the block.
        assert np.array_equal(goodness.counts(seeds[-1:], kappas)[:, 0], want[:, -1])
    return goodness


def check_against_reference(rng, k, kappas) -> int:
    """Assert the kernel matches the oracle on every block kind and rung.

    Returns the number of weighted (machine, seed) cells evaluated.
    """
    family, groups, mus, bases = random_stage(rng, k)
    blocks = seed_blocks(rng, family)
    assert_counts_match(family, THRESHOLD, groups, mus, bases, kappas, blocks)
    weighted = sum(g.grouping.num_machines for g in groups if g.weights is not None)
    return sum(weighted * (seeds.size + 1) for seeds in blocks)


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("kappa", KAPPAS)
def test_counts_match_reference(kappa, k):
    check_against_reference(np.random.default_rng(5 + k), k, ladder(kappa, 4))


@given(st.integers(0, 2**31), st.sampled_from([1, 2, 4]))
@settings(max_examples=40)
def test_counts_match_reference_property(seed, k):
    rng = np.random.default_rng(seed)
    check_against_reference(rng, k, random_ladder(rng))


@given(st.integers(0, 2**31), st.sampled_from([1, 2, 4]))
@settings(max_examples=15)
def test_exact_fallback_matches_reference(seed, k):
    """A band so wide that every weighted cell -- node twins' derived rows
    included -- is re-summed the reference way, once per block."""
    seen = []
    original = stage_mod._MachineStack.reference_sums

    def spy(self, rows, cols, operand):
        seen.append(rows.size)
        return original(self, rows, cols, operand)

    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stage_mod, "_ROUNDING_BAND", 1e300)
        mp.setattr(stage_mod._MachineStack, "reference_sums", spy)
        cells = check_against_reference(rng, k, random_ladder(rng))
    assert sum(seen) == cells


def filtered_rows(goodness, kappas):
    """``(rows that can fail, rows)`` of every block of both stacks."""
    out = []
    for stack in (goodness.counted, goodness.summed):
        if stack is not None:
            sizes = (stack.split, stack.mu.size - stack.split)
            blocks = stack.ladder(tuple(kappas))
            out += [(b.rows.size, size) for b, size in zip(blocks, sizes)]
    return out


@given(st.integers(0, 2**31), st.sampled_from([1, 2, 4]))
@settings(max_examples=15)
def test_stages_where_every_row_or_no_row_can_fail(seed, k):
    """Zero slack: every row's rung-0 window misses a value its total can
    take, so every row is filtered.  A huge slack: no row can fail, none is
    filtered, and every machine is good under every seed."""
    rng = np.random.default_rng(seed)
    family, groups, mus, bases = random_stage(rng, k)
    kappas = random_ladder(rng)
    blocks = seed_blocks(rng, family)
    zero = [np.zeros_like(b) for b in bases]
    goodness = assert_counts_match(family, THRESHOLD, groups, mus, zero, kappas, blocks)
    assert all(rows == size for rows, size in filtered_rows(goodness, kappas))
    huge = [np.full_like(b, 1e6) for b in bases]
    goodness = assert_counts_match(family, THRESHOLD, groups, mus, huge, kappas, blocks)
    assert all(rows == 0 for rows, _ in filtered_rows(goodness, kappas))
    for seeds in blocks:
        assert np.all(goodness.counts(seeds, kappas) == goodness.machines)


@pytest.mark.parametrize("threshold", [THRESHOLD, Q - 1, Q])
@pytest.mark.parametrize("mu_scale", [1.0, 2.0])
@pytest.mark.parametrize(
    "chunk, node_items, dtypes",
    [
        (127, 300, (np.int8, np.int16)),  # the largest int8 chunk load
        (128, 300, (np.int16, np.int16)),
        (100, 33_000, (np.int8, np.int32)),  # a node load past int16
    ],
)
def test_counted_dtypes_switch_at_the_loads_they_hold(
    chunk, node_items, dtypes, mu_scale, threshold
):
    """A counted block sums in the narrowest signed type its loads fit.

    One node fills chunk machines of exactly ``chunk`` items, another holds
    ``node_items``.  At ``threshold = q`` every item is sampled, so a count
    equals its load; ``mu_scale = 2`` with a threshold near ``q`` puts lower
    bounds above the loads (bad under every seed)."""
    rng = np.random.default_rng(chunk + node_items)
    nodes = np.repeat(np.arange(3), [node_items, chunk, 5])
    spec = MachineGroupSpec(
        name="A", grouping=chunk_items_by_group(nodes, chunk),
        unit_ids=rng.integers(0, Q, size=nodes.size),
    )
    groups = [spec, spec.node_twin("A/node")]
    mus = [mu_scale * threshold / Q * g.weight_totals() for g in groups]
    bases = [np.full(g.grouping.num_machines, 0.5) for g in groups]
    family = KWiseHashFamily(q=Q, k=2)
    blocks = [np.arange(250, 280, dtype=np.int64), np.array([3, 90, 41], dtype=np.int64)]
    goodness = assert_counts_match(
        family, threshold, groups, mus, bases, ladder(1.0, 9), blocks
    )
    assert goodness.counted.dtypes == dtypes
    assert goodness.counted.matrix.dtype == dtypes[0]


def test_ladder_must_not_decrease():
    family, groups, mus, bases = random_stage(np.random.default_rng(3), 2)
    goodness = StageGoodness(family, THRESHOLD, groups, mus, bases)
    with pytest.raises(ValueError, match="must not decrease"):
        goodness.counts(np.arange(1, 5), (1.5, 1.0))


def test_twin_without_its_chunk_group_is_refused():
    chunk = MachineGroupSpec(
        name="A", grouping=chunk_items_by_group(np.array([0, 0, 1]), 2),
        unit_ids=np.array([3, 4, 5]),
    )
    family = KWiseHashFamily(q=Q, k=2)
    twin = chunk.node_twin("A/node")
    with pytest.raises(ValueError, match="chunk group is not in the stage"):
        StageGoodness(family, THRESHOLD, [twin], [np.zeros(2)], [np.ones(2)])


@given(st.integers(0, 2**31))
@settings(max_examples=40)
def test_node_twin_grouping_is_the_sorted_node_grouping(seed):
    """``per_group`` derives, with no sort, what a stand-alone node-level
    grouping computes by sorting the items again."""
    rng = np.random.default_rng(seed)
    n_items = int(rng.integers(0, 80))
    nodes = rng.integers(0, int(rng.integers(1, 15)), size=n_items)
    chunk = chunk_items_by_group(nodes, int(rng.integers(1, 9)))
    derived = chunk.per_group()
    alone = node_level_spec("alone", nodes, np.arange(n_items)).grouping
    for name in ("machine_of_item", "group_of_machine", "loads", "item_order"):
        a, b = getattr(derived, name), getattr(alone, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert derived.chunk_size == alone.chunk_size
    assert np.array_equal(chunk.item_order, group_order_indptr(
        chunk.machine_of_item, chunk.num_machines
    )[0])


@given(st.integers(0, 2**31), st.sampled_from([1, 2, 4]))
@settings(max_examples=15)
def test_reference_sums_are_the_reduceat_sums_bit_for_bit(seed, k):
    """The fallback re-sums a machine exactly as the per-item oracle does."""
    rng = np.random.default_rng(seed)
    family, groups, mus, bases = random_stage(rng, k)
    goodness = StageGoodness(family, THRESHOLD, groups, mus, bases)
    if goodness.summed is None:
        return
    for seeds in seed_blocks(rng, family):
        want = []
        for g in goodness.summed.groups:  # the stack's row order
            order, indptr = group_order_indptr(
                g.grouping.machine_of_item, g.grouping.num_machines
            )
            sampled = family.indicator_batch(seeds, g.unit_ids[order], THRESHOLD)
            want.append(segment_sum_2d(g.weights[order][None, :] * sampled, indptr))
        want = np.concatenate(want, axis=1)
        rows, cols = np.nonzero(np.ones(want.T.shape, dtype=bool))
        got = goodness.summed.reference_sums(
            rows, cols, family.indicator_batch(seeds, goodness.ids, THRESHOLD).T
        )
        assert got.tobytes() == want.T[rows, cols].tobytes()


def straddling_machine(rng, family, seeds, n=64):
    """One weighted machine, a seed and a ``mu`` whose lower bound lies
    strictly between the reference sum (below it) and the kernel's float32
    product (above it), more than an ulp from either: the product alone
    would pass a machine the reference fails, unless the band sends the
    cell to the exact fallback."""
    units = np.arange(n)[::-1].copy()  # the product sums in the other order
    grouping = chunk_items_by_group(np.zeros(n, dtype=np.int64), n)
    for _ in range(100):
        weights = rng.random(n) * 10.0 ** rng.integers(-6, 1, size=n)
        spec = MachineGroupSpec(
            name="B", grouping=grouping, unit_ids=units, weights=weights,
            check_upper=False, check_lower=True,
        )
        zero = [np.zeros(1)]
        goodness = StageGoodness(family, THRESHOLD, [spec], zero, zero)
        sampled = family.indicator_batch(seeds, goodness.ids, THRESHOLD)
        product = goodness.summed.totals(np.ascontiguousarray(sampled.T))[0][0]
        assert product.dtype == np.float32
        reference = segment_sum_2d(
            weights[None, :] * family.indicator_batch(seeds, units, THRESHOLD),
            np.array([0, n]),
        )[:, 0]
        for j in np.nonzero(product > reference)[0]:
            low, high = reference[j], float(product[j])
            mu = high + 1e-9
            for _ in range(64):  # the bound is mu - lam - 1e-9 with lam = 0
                bound = mu - 0.0 - 1e-9
                below, above = np.nextafter(bound, -np.inf), np.nextafter(bound, np.inf)
                if low < below and above < high:
                    return spec, int(j), mu
                mu = np.nextafter(mu, -np.inf)
    pytest.fail("no seed whose product and reference sums straddle a bound")


def test_bound_between_product_and_reference_sum_takes_the_fallback():
    family = KWiseHashFamily(q=Q, k=2)
    seeds = np.arange(1, 257, dtype=np.int64)
    spec, j, mu = straddling_machine(np.random.default_rng(0), family, seeds)
    mus, bases = [np.array([mu])], [np.zeros(1)]
    one = seeds[j : j + 1]
    goodness = StageGoodness(family, THRESHOLD, [spec], mus, bases)
    want = reference_counts(family, THRESHOLD, [spec], mus, bases, 1.0, one)
    assert np.array_equal(goodness.counts(one, (1.0,))[0], want)


def test_stage_degradation_counters_match_records():
    """Every exhausted scan and every slack escalation is counted."""
    g = gnp_random_graph(400, 0.1, seed=1)
    before = METRICS.export()
    res = deterministic_maximal_matching(g, Params())
    after = METRICS.export()
    stages = [s for r in res.records for s in r.stages]
    assert stages[0].escalations >= 1  # this input's first stage escalates

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    assert delta("stage.scan_exhausted") == sum(s.escalations for s in stages)
    assert delta("stage.slack_escalations") == sum(
        s.escalations - (not s.all_good) for s in stages
    )
