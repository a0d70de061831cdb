"""Seed-block parity and wrap-around scans.

The contract under test: the seed scan returns a *bit-identical*
:class:`~repro.derand.strategies.SeedSelection` -- same seed, value, trial
count and ``satisfied`` flag -- whatever its block size, at every call
site, for arbitrary family sizes, starts and targets.  ``chunk_size=1`` (one lazy objective evaluation per trial)
is the reference every drawn chunk size is compared with: blocks only
change how many seeds are evaluated per objective call, never which seed
wins.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cclique.mis_cc import cc_maximal_matching, cc_mis
from repro.congest.mis_congest import congest_mis
from repro.core import Params, lowdeg_mis
from repro.core.api import maximal_independent_set, maximal_matching
from repro.derand import strategies as derand_strategies
from repro.derand.strategies import scan_regions, select_seed_batch
from repro.graphs import cycle_graph, gnp_random_graph, star_graph
from repro.graphs.kernels import SegmentTable, group_order_indptr
from repro.hashing.families import make_product_family
from repro.hashing.kwise import MAX_FIELD, KWiseHashFamily, make_family


def segment_min_2d(values: np.ndarray, indptr: np.ndarray, fill) -> np.ndarray:
    """Reference for ``SegmentTable.min``: per-segment minimum along axis 1,
    ``fill`` for empty segments."""
    n = indptr.size - 1
    out = np.full((values.shape[0], n), fill, dtype=values.dtype)
    if values.shape[1] == 0 or n == 0:
        return out
    nonempty = indptr[:-1] < indptr[1:]
    out[:, nonempty] = np.minimum.reduceat(values, indptr[:-1][nonempty], axis=1)
    return out


def _vector_objective(values: np.ndarray):
    arr = np.asarray(values, dtype=np.float64)
    return lambda seeds: arr[np.asarray(seeds, dtype=np.int64)]


# --------------------------------------------------------------------- #
# Scan-level parity (hypothesis)
# --------------------------------------------------------------------- #


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.floats(-100, 100, allow_nan=False), min_size=1, max_size=80
    ),
    start=st.integers(0, 300),
    target=st.floats(-120, 120),
    max_trials=st.integers(1, 120),
    chunk=st.integers(1, 64),
    data=st.data(),
)
def test_scan_parity_all_fields(values, start, target, max_trials, chunk, data):
    vals = np.array(values)
    kw = dict(target=target, max_trials=max_trials, start=start)
    a = select_seed_batch(vals.size, _vector_objective(vals), chunk_size=1, **kw)
    b = select_seed_batch(vals.size, _vector_objective(vals), chunk_size=chunk, **kw)
    assert a == b


def test_scalar_adapter_matches_batch_engine():
    """``chunk_size=1`` evaluates one seed per objective call, one call per
    reported trial, and selects what the ramped blocks select."""
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    calls = []

    def one_at_a_time(seeds):
        calls.append(seeds.tolist())
        return _vector_objective(values)(seeds)

    kw = dict(target=9.0, start=2)
    a = select_seed_batch(8, one_at_a_time, chunk_size=1, **kw)
    b = select_seed_batch(8, _vector_objective(values), **kw)
    assert a == b
    assert calls == [[2], [3], [4], [5]] and a.trials == 4


# --------------------------------------------------------------------- #
# Wrap-around scan semantics (satellite: no silently-lost regions)
# --------------------------------------------------------------------- #


def test_scan_start_past_end_wraps():
    # Old behaviour: start >= family_size clamped to the last seed only.
    # Now the scan covers the whole wrapped order [1, size).
    values = [100.0, 0.0, 0.0, 7.0, 0.0]
    sel = select_seed_batch(
        5, _vector_objective(values), target=7.0, start=9
    )
    assert sel.satisfied and sel.seed == 3


def test_scan_wraps_to_cover_prefix():
    # start=3: scans 3, 4, then wraps to 1, 2 (seed 0 stays skipped).
    values = [50.0, 8.0, 0.0, 0.0, 0.0]
    sel = select_seed_batch(
        5, _vector_objective(values), target=8.0, start=3
    )
    assert sel.satisfied and sel.seed == 1
    assert sel.trials == 3  # seeds 3, 4, 1


def test_scan_wrap_skips_seed_zero():
    values = [10.0, 0.0, 0.0]
    sel = select_seed_batch(
        3, _vector_objective(values), target=10.0, start=1
    )
    assert not sel.satisfied  # seed 0 (the constant-zero hash) never scanned
    assert sel.trials == 2


def test_scan_start_zero_covers_everything():
    values = [1.0, 2.0, 3.0]
    sel = select_seed_batch(
        3, _vector_objective(values), target=3.0, start=0
    )
    assert sel.satisfied and sel.seed == 2 and sel.trials == 3


def test_scan_regions_normalises_start():
    regions = scan_regions(10, 12)
    assert regions[0][0] == 1 + (12 - 1) % 9
    covered = [s for lo, hi in regions for s in range(lo, hi)]
    assert sorted(covered) == list(range(1, 10))
    # family of {0} with a skip request still scans seed 0
    assert scan_regions(1, 1) == [(0, 1)]


def test_scan_trials_capped_by_wrapped_family():
    calls = []
    sel = select_seed_batch(
        6,
        lambda seeds: calls.extend(seeds.tolist()) or np.zeros(seeds.size),
        target=1.0,
        max_trials=100,
        start=4,
    )
    assert not sel.satisfied
    assert sel.trials == 5  # seeds 4, 5, 1, 2, 3 -- never seed 0, never twice
    assert calls == [4, 5, 1, 2, 3]


# --------------------------------------------------------------------- #
# Hashing batch parity (hypothesis)
# --------------------------------------------------------------------- #


@settings(max_examples=50, deadline=None)
@given(
    universe=st.integers(2, 400),
    k=st.integers(1, 4),
    s0=st.integers(0, 1000),
    count=st.integers(1, 80),
)
def test_evaluate_batch_matches_evaluate(universe, k, s0, count):
    fam = make_family(universe, k=k, min_q=5)
    count = min(count, fam.size)
    s0 = s0 % (fam.size - count + 1)
    xs = np.arange(min(universe, fam.q), dtype=np.int64)
    seeds = np.arange(s0, s0 + count, dtype=np.int64)
    block = fam.evaluate_batch(seeds, xs)
    for i in (0, count // 2, count - 1):
        assert np.array_equal(block[i], fam.evaluate(int(seeds[i]), xs))


@settings(max_examples=30, deadline=None)
@given(universe=st.integers(2, 200), s0=st.integers(0, 500), count=st.integers(1, 50))
def test_product_batch_matches_evaluate(universe, s0, count):
    fam = make_product_family(universe, k=2, min_q=5)
    xs = np.arange(fam.domain, dtype=np.int64)
    seeds = np.arange(s0, s0 + count, dtype=np.int64)
    block = fam.evaluate_batch(seeds, xs)
    for i in (0, count - 1):
        assert np.array_equal(block[i], fam.evaluate(int(seeds[i]), xs))


def test_evaluate_batch_rejects_out_of_range_run():
    fam = make_family(10, k=2, min_q=5)
    bad = np.arange(fam.size - 2, fam.size + 3, dtype=np.int64)
    with pytest.raises(ValueError):
        fam.evaluate_batch(bad, np.arange(5))
    with pytest.raises(ValueError):
        fam.indicator_batch(bad, np.arange(5), 3)


@pytest.mark.parametrize("k", [2, 3])
def test_indicator_batch_at_the_largest_field(k):
    """At ``q = MAX_FIELD``, with ids just below ``q`` and a contiguous run
    across a digit-0 rollover, the uint32 step ``h + x`` must not wrap."""
    q = MAX_FIELD
    fam = KWiseHashFamily(q=q, k=k)
    xs = np.array([0, 1, 2, q // 2, q // 2 + 1, q - 3, q - 2, q - 1], dtype=np.int64)
    seeds = np.arange(5 * q - 6, 5 * q + 6, dtype=np.int64)
    block = fam.evaluate_batch(seeds, xs)
    assert int(block.max()) > 2**31 - 2**20  # the run reaches values near q
    for t in (0, 1, q // 3, q - 2, q - 1, q):
        assert np.array_equal(fam.indicator_batch(seeds, xs, t), block < np.uint64(t))


def test_evaluate_batch_arbitrary_seed_order():
    fam = make_family(100, k=2)
    xs = np.arange(50, dtype=np.int64)
    seeds = np.array([9, 3, 77, 3, 0], dtype=np.int64)  # non-contiguous
    block = fam.evaluate_batch(seeds, xs)
    for i, s in enumerate(seeds):
        assert np.array_equal(block[i], fam.evaluate(int(s), xs))


# --------------------------------------------------------------------- #
# Block-kernel parity (per-row reductions over the arcs, every layout)
# --------------------------------------------------------------------- #


#: Seed rows per block: one seed (every phase that stops at its first
#: seed), two, and a ragged five.
HEIGHTS = (1, 2, 5)


def _draw_layout(data, rng) -> tuple[np.ndarray, np.ndarray, int]:
    """``(cols, indptr, width)``: random segments, no segments at all,
    segments that are all empty (no arcs), or a star's CSR rows, one
    segment far wider than the rest (where a padded table would not fit)."""
    kind = data.draw(st.sampled_from(["random", "no segments", "all empty", "star"]))
    if kind == "star":
        g = star_graph(data.draw(st.integers(2, 40)))
        return g.indices, g.indptr, g.n
    m = 0 if kind == "no segments" else data.draw(st.integers(1, 12))
    sizes = rng.integers(0, 6, m) if kind == "random" else np.zeros(m, dtype=np.int64)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    width = 30
    return rng.integers(0, width, indptr[-1]), indptr, width


@settings(max_examples=80, deadline=None)
@given(data=st.data(), height=st.sampled_from(HEIGHTS))
def test_segment_table_min_matches_reference(data, height):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    cols, indptr, width = _draw_layout(data, rng)
    vals = rng.integers(0, 1000, (height, width)).astype(np.uint64)
    fill = np.uint64(2**63 - 1)
    ref = segment_min_2d(vals[:, cols], indptr, fill)
    got = SegmentTable(cols, indptr).min(vals, fill)
    assert got.dtype == vals.dtype and np.array_equal(ref, got)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), height=st.sampled_from(HEIGHTS))
def test_segment_table_any_matches_reference(data, height):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    cols, indptr, width = _draw_layout(data, rng)
    m = indptr.size - 1
    mask = rng.random((height, width)) < 0.3
    ref = np.zeros((height, m), dtype=bool)
    for i in range(m):
        seg = cols[indptr[i] : indptr[i + 1]]
        if seg.size:
            ref[:, i] = mask[:, seg].any(axis=1)
    got = SegmentTable(cols, indptr).any(mask)
    assert got.dtype == bool and np.array_equal(ref, got)


def test_group_order_indptr_monotone_fast_path():
    groups = np.array([0, 0, 2, 2, 2, 5])
    order, indptr = group_order_indptr(groups, 6)
    assert np.array_equal(order, np.arange(6))
    assert indptr.tolist() == [0, 2, 2, 5, 5, 5, 6]
    shuffled = np.array([2, 0, 5, 2, 0, 2])
    order2, indptr2 = group_order_indptr(shuffled, 6)
    assert np.array_equal(shuffled[order2], groups)
    assert np.array_equal(indptr2, indptr)


# --------------------------------------------------------------------- #
# Call-site parity: every solver, one seed vs 16-seed blocks, same outcome
# --------------------------------------------------------------------- #


def set_seed_chunk(monkeypatch, chunk: int) -> None:
    """Ramp every seed block of every solver up to ``chunk`` seeds."""
    monkeypatch.setattr(derand_strategies, "DEFAULT_SEED_CHUNK", chunk)


@pytest.mark.parametrize("n,p,seed", [(60, 0.1, 1), (120, 0.05, 2)])
def test_deterministic_mis_backend_parity(n, p, seed, monkeypatch):
    g = gnp_random_graph(n, p, seed=seed)
    set_seed_chunk(monkeypatch, 1)
    a = maximal_independent_set(g, force="general")
    set_seed_chunk(monkeypatch, 16)
    b = maximal_independent_set(g, force="general")
    assert np.array_equal(a.independent_set, b.independent_set)
    assert a.rounds == b.rounds
    for ra, rb in zip(a.records, rb_list := list(b.records)):
        assert ra.selection_trials == rb.selection_trials
        assert ra.selection_value == rb.selection_value
        assert ra.selection_satisfied == rb.selection_satisfied
    assert len(a.records) == len(rb_list)


def test_deterministic_matching_backend_parity(monkeypatch):
    g = gnp_random_graph(80, 0.08, seed=5)
    set_seed_chunk(monkeypatch, 1)
    a = maximal_matching(g, force="general")
    set_seed_chunk(monkeypatch, 16)
    b = maximal_matching(g, force="general")
    assert np.array_equal(a.pairs, b.pairs)
    assert a.rounds == b.rounds


@pytest.mark.parametrize("graph_fn", [lambda: cycle_graph(64), lambda: gnp_random_graph(90, 0.05, seed=3)])
def test_lowdeg_backend_parity(graph_fn, monkeypatch):
    g = graph_fn()
    set_seed_chunk(monkeypatch, 1)
    a = lowdeg_mis(g, Params())
    set_seed_chunk(monkeypatch, 16)
    b = lowdeg_mis(g, Params())
    assert np.array_equal(a.independent_set, b.independent_set)
    assert [r.selection_trials for r in a.records] == [
        r.selection_trials for r in b.records
    ]
    assert [r.selection_value for r in a.records] == [
        r.selection_value for r in b.records
    ]
    assert [r.selection_satisfied for r in a.records] == [
        r.selection_satisfied for r in b.records
    ]


@pytest.mark.parametrize(
    "run",
    [
        # exhausted scans evaluate every seed of their budget, so blocks
        # fill up
        lambda g: lowdeg_mis(g, Params(target_safety=2000.0, max_scan_trials=20)),
        cc_mis,
        cc_maximal_matching,
        lambda g: congest_mis(g, mode="voting"),
        lambda g: congest_mis(g, mode="color-compressed"),
    ],
    ids=["lowdeg_mis", "cc_mis", "cc_maximal_matching", "congest_voting",
         "congest_color"],
)
def test_seed_block_byte_cap_keeps_selections(run, monkeypatch):
    """A byte budget of three seeds clamps every phase's seed blocks to
    three seeds; every phase still selects what ``chunk_size=1`` selects."""
    import repro.models.phase as phase

    g = gnp_random_graph(90, 0.1, seed=3)
    calls = []
    select = phase.select_seed_batch

    def spy(*args, **kwargs):
        sel = select(*args, **kwargs)
        calls.append((kwargs["chunk_size"], sel))
        return sel

    monkeypatch.setattr(phase, "select_seed_batch", spy)
    set_seed_chunk(monkeypatch, 1)
    want = run(g)
    want_sels = [sel for _, sel in calls]
    assert want_sels and all(chunk == 1 for chunk, _ in calls)

    calls.clear()
    pick = phase._LubyPhase.select

    def three_seed_budget(self, objective, **search):
        monkeypatch.setattr(phase, "_SEED_BLOCK_BYTES", 3 * self.seed_bytes)
        return pick(self, objective, **search)

    monkeypatch.setattr(phase._LubyPhase, "select", three_seed_budget)
    set_seed_chunk(monkeypatch, 16)
    got = run(g)
    assert [chunk for chunk, _ in calls] == [3] * len(want_sels)
    assert [sel for _, sel in calls] == want_sels
    assert got.rounds == want.rounds
    for field in ("independent_set", "solution"):
        if hasattr(want, field):
            assert np.array_equal(getattr(got, field), getattr(want, field))


@pytest.mark.parametrize("fn", [cc_mis, cc_maximal_matching])
def test_cclique_backend_parity(fn, monkeypatch):
    g = gnp_random_graph(70, 0.12, seed=9)
    set_seed_chunk(monkeypatch, 1)
    a = fn(g)
    set_seed_chunk(monkeypatch, 16)
    b = fn(g)
    assert np.array_equal(a.solution, b.solution)
    assert a.rounds == b.rounds
    assert a.edge_trace == b.edge_trace


@pytest.mark.parametrize("mode", ["voting", "color-compressed"])
def test_congest_backend_parity(mode, monkeypatch):
    g = gnp_random_graph(60, 0.1, seed=13)
    set_seed_chunk(monkeypatch, 1)
    a = congest_mis(g, mode=mode)
    set_seed_chunk(monkeypatch, 16)
    b = congest_mis(g, mode=mode)
    assert np.array_equal(a.independent_set, b.independent_set)
    assert a.rounds == b.rounds


# --------------------------------------------------------------------- #
# lowdeg phase-offset regression (satellite)
# --------------------------------------------------------------------- #


def test_lowdeg_phase_offsets_stay_in_family():
    """Late-phase scan starts must rotate within the family, and the scan
    must still be able to cover every non-zero seed (the old arithmetic
    could pin every phase to start=1 or clamp the scanned region)."""
    g = cycle_graph(48)  # small palette -> small family, many phases
    params = Params(max_scan_trials=1 << 14)  # trials >> family size
    res = lowdeg_mis(g, params)
    assert res.iterations >= 2
    for rec in res.records:
        # a wrapped scan never evaluates more than the family's non-zero
        # seeds, whatever the budget
        assert rec.selection_trials <= (1 << rec.seed_bits)


def test_lowdeg_deep_phase_start_wraps_not_clamps():
    # With family.size - 1 as the modulus, consecutive phases get distinct
    # rotating offsets; the result must stay a valid MIS either way.
    from repro.verify import is_independent_set, is_maximal_independent_set

    g = gnp_random_graph(70, 0.06, seed=21)
    res = lowdeg_mis(g, Params(max_scan_trials=7))
    mask = np.zeros(g.n, dtype=bool)
    mask[res.independent_set] = True
    assert is_independent_set(g, mask)
    assert is_maximal_independent_set(g, mask)
