"""Tests for the round ledger, MPC context and machine partitioning."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.models import RoundLedger, SpaceExceededError
from repro.mpc import MPCContext, chunk_items_by_group

# --------------------------------------------------------------------- #
# RoundLedger and the MPC round costs
# --------------------------------------------------------------------- #


def _ctx_chunk_10() -> MPCContext:
    """S = 32 * 1024^0.5 = 1024 words: seeds are fixed 10 bits at a time."""
    ctx = MPCContext(n=1024, m=0)
    assert ctx.chunk_bits == 10
    return ctx


def test_ledger_accumulates_by_category():
    led = RoundLedger()
    led.charge("a", 2)
    led.charge("b", 3)
    led.charge("a", 1)
    assert led.rounds == 6
    assert led.by_category["a"] == 3
    assert led.by_category["b"] == 3
    assert led.model_snapshot().rounds == 6


def test_ledger_rejects_negative():
    led = RoundLedger()
    with pytest.raises(ValueError):
        led.charge("x", -1)
    with pytest.raises(ValueError):
        led.charge("x", 1, words=-1)
    assert led.rounds == led.words_moved == 0


def test_round_costs_gather_rhop_logarithmic():
    ctx = MPCContext(n=100, m=50)
    for r in (1, 2, 8, 9):
        ctx.charge_gather_rhop(r, f"r{r}")
    assert ctx.by_category == {"r1": 2, "r2": 2, "r8": 6, "r9": 8}


def test_round_costs_seed_fix_chunks():
    # 40-bit seed fixed log2(S) = 10 bits at a time -> 4 chunks x 2 rounds.
    ctx = _ctx_chunk_10()
    ctx.charge_seed_fix(40, "forty")
    ctx.charge_seed_fix(1, "one")
    assert ctx.by_category == {"forty": 4 * 2, "one": 1 * 2}


def test_convenience_chargers():
    ctx = _ctx_chunk_10()
    ctx.charge_sort()
    ctx.charge_prefix_sum()
    ctx.charge_gather_2hop()
    ctx.charge_seed_fix(20)
    assert ctx.rounds == 1 + 1 + 2 + 2 * 2


# --------------------------------------------------------------------- #
# Space high-water mark and the SpaceExceededError checks
# --------------------------------------------------------------------- #


def test_space_tracker_highwater():
    ctx = MPCContext(n=100, m=100)
    ctx.observe_loads([10, 50, 30])
    ctx.observe_loads([20, 20])
    assert ctx.max_words_seen == 50


def test_space_tracker_raises_per_machine():
    ctx = MPCContext(n=100, m=100)
    with pytest.raises(SpaceExceededError) as ei:
        ctx.observe_loads([10, ctx.S + 1], "test phase")
    assert ei.value.machine == 1
    assert "test phase" in str(ei.value)


def test_space_tracker_raises_total():
    ctx = MPCContext(n=100, m=100, total_factor=1.0)
    loads = [ctx.S] * (ctx.total_space_budget // ctx.S + 1)
    with pytest.raises(SpaceExceededError) as ei:
        ctx.observe_loads(loads, "test phase")
    assert ei.value.machine == -1
    assert "total test phase" in str(ei.value)


def test_space_tracker_numpy_input():
    ctx = MPCContext(n=100, m=100)
    ctx.observe_loads(np.array([1, 2, 3]))
    assert ctx.max_words_seen == 3


def test_observe_single():
    ctx = MPCContext(n=100, m=100)
    ctx.observe_load(0, 7)
    assert ctx.max_words_seen == 7
    with pytest.raises(SpaceExceededError):
        ctx.observe_load(0, ctx.S + 1)


# --------------------------------------------------------------------- #
# MPCContext
# --------------------------------------------------------------------- #


def test_context_space_formula():
    ctx = MPCContext(n=256, m=1000, eps=0.5, space_factor=32.0)
    assert ctx.S == 32 * 16
    assert ctx.num_machines >= (256 + 2000) // ctx.S


def test_context_rejects_bad_eps():
    with pytest.raises(ValueError):
        MPCContext(n=10, m=5, eps=0.0)


def test_context_chunk_bits():
    ctx = MPCContext(n=1024, m=100, eps=0.5)
    assert ctx.chunk_bits == int(np.log2(ctx.S))


def test_context_charges_flow_to_ledger():
    ctx = MPCContext(n=100, m=50)
    ctx.charge_sort("s")
    ctx.charge_seed_fix(64, "f")
    assert ctx.rounds > 1
    assert ctx.by_category["s"] == 1


def test_context_total_budget_scales():
    small = MPCContext(n=100, m=100).total_space_budget
    big = MPCContext(n=1000, m=100).total_space_budget
    assert big > small


# --------------------------------------------------------------------- #
# chunk_items_by_group
# --------------------------------------------------------------------- #


def test_chunking_basic():
    groups = np.array([0, 0, 0, 0, 0, 1, 1, 2])
    g = chunk_items_by_group(groups, chunk_size=2)
    # group 0 -> 3 machines (2,2,1), group 1 -> 1 machine (2), group 2 -> 1.
    assert g.num_machines == 5
    assert g.loads.tolist() == [2, 2, 1, 2, 1]
    assert g.group_of_machine.tolist() == [0, 0, 0, 1, 2]


def test_chunking_items_stay_in_their_group():
    groups = np.array([3, 1, 3, 1, 3, 7])
    g = chunk_items_by_group(groups, chunk_size=2)
    for item, machine in enumerate(g.machine_of_item.tolist()):
        assert g.group_of_machine[machine] == groups[item]


def test_chunking_at_most_one_remainder_per_group():
    """The paper's 'n^{4 delta} items on all but at most one machine'."""
    rng = np.random.default_rng(0)
    groups = rng.integers(0, 20, size=500)
    g = chunk_items_by_group(groups, chunk_size=7)
    for grp in np.unique(groups):
        loads = g.loads[g.machines_of_group(grp)]
        assert (loads < 7).sum() <= 1
        assert loads.max() <= 7


def test_chunking_empty():
    g = chunk_items_by_group(np.array([], dtype=np.int64), 5)
    assert g.num_machines == 0
    assert g.num_items == 0


def test_chunking_rejects_bad_chunk():
    with pytest.raises(ValueError):
        chunk_items_by_group(np.array([1, 2]), 0)


@given(
    st.lists(st.integers(0, 9), min_size=1, max_size=200),
    st.integers(1, 10),
)
def test_chunking_properties_hypothesis(group_list, chunk):
    groups = np.asarray(group_list, dtype=np.int64)
    g = chunk_items_by_group(groups, chunk)
    # loads sum to item count; every load in [1, chunk]
    assert int(g.loads.sum()) == groups.size
    assert g.loads.min() >= 1 and g.loads.max() <= chunk
    # machine count = sum of per-group ceil(count / chunk)
    want = sum(
        -(-int((groups == grp).sum()) // chunk) for grp in np.unique(groups)
    )
    assert g.num_machines == want
