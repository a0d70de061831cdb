"""Tests for the literal MPC engine and the Lemma-4 primitives."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.models import CapacityExceededError, SpaceExceededError
from repro.mpc import (
    MPCEngine,
    broadcast_word,
    distributed_prefix_sums,
    distributed_sort_packed,
    word_size,
)


def test_word_size():
    assert word_size(5) == 1
    assert word_size((1, 2, 3)) == 3
    assert word_size([1, 2]) == 2


def test_word_size_counts_nested_contents_recursively():
    """Regression: a tuple containing an ndarray used to be charged
    ``len(tuple)`` words, so a 3-slot message could smuggle an arbitrarily
    large array past the capacity checks."""
    arr = np.arange(1000)
    assert word_size(("payload", arr, 7)) == 1 + 1000 + 1
    assert word_size([("a", 1), ("b", (2, 3))]) == 2 + 3
    assert word_size((np.arange(4), [np.arange(5)])) == 9


def test_engine_charges_nested_array_messages_fully():
    """A machine cannot send an oversized array inside a small tuple."""
    eng = MPCEngine(num_machines=2, space=8)
    eng.storage[0] = [1]

    def step(mid, items):
        if mid == 0:
            return [], [(1, ("blob", np.arange(50)))]
        return items, []

    with pytest.raises(CapacityExceededError):
        eng.round(step)


def test_engine_load_balanced():
    eng = MPCEngine(num_machines=4, space=10)
    eng.load_balanced(range(10))
    assert eng.all_items() == list(range(10))
    assert max(eng.machine_load(i) for i in range(4)) <= 3


def test_engine_reuse_resets_accounting():
    """Reloading input starts a fresh computation: rounds and the space
    high-water mark must not leak from the previous run."""
    eng = MPCEngine(num_machines=2, space=16)
    eng.load_balanced(range(16))
    eng.round(lambda mid, items: (items, []))
    assert eng.rounds_executed == 1
    assert eng.max_words_seen == 8

    eng.load_balanced(range(4))
    assert eng.rounds_executed == 0
    assert (eng.rounds, eng.words_moved, eng.by_category) == (0, 0, {})
    assert eng.max_words_seen == 2
    assert eng.all_items() == list(range(4))


def test_engine_rejects_overload_on_load():
    eng = MPCEngine(num_machines=2, space=3)
    with pytest.raises(SpaceExceededError):
        eng.load_balanced(range(10))


def test_engine_round_moves_messages():
    eng = MPCEngine(num_machines=2, space=10)
    eng.load_balanced([1, 2])

    def step(mid, items):
        if mid == 0:
            return [], [(1, x) for x in items]
        return items, []

    eng.round(step)
    assert eng.storage[0] == []
    assert sorted(eng.storage[1]) == [1, 2]
    assert eng.rounds_executed == 1


def test_engine_send_capacity_enforced():
    eng = MPCEngine(num_machines=2, space=3)
    eng.storage[0] = [1, 2, 3]

    def step(mid, items):
        if mid == 0:
            return [], [(1, x) for x in items + [99]]  # 4 words > S
        return items, []

    with pytest.raises(CapacityExceededError):
        eng.round(step)


def test_engine_receive_capacity_enforced():
    eng = MPCEngine(num_machines=3, space=2)
    eng.storage[0] = [1, 2]
    eng.storage[1] = [3, 4]

    def step(mid, items):
        if mid in (0, 1):
            return [], [(2, x) for x in items]
        return items, []

    with pytest.raises(CapacityExceededError):
        eng.round(step)


def test_engine_rejects_unknown_destination():
    eng = MPCEngine(num_machines=2, space=4)
    eng.storage[0] = [1]
    with pytest.raises(ValueError):
        eng.round(lambda mid, items: (items, [(7, 1)] if mid == 0 else []))


def test_broadcast_reaches_everyone():
    eng = MPCEngine(num_machines=9, space=20)
    rounds = broadcast_word(eng, 4242)
    for mid in range(9):
        assert eng.tables["bcast"].on(mid).tolist() == [[4242]]
    assert rounds <= 3
    # one 2-word ("bcast", value) row per machine beyond the root
    assert eng.words_moved == 2 * 8


def test_broadcast_token_is_stored_under_the_ceiling():
    """Regression: the root's token skipped the storage check, so with
    M = 1 (no round follows) machine 0 held 6 words against S = 4 with no
    error and a high-water mark of 4."""
    eng = MPCEngine(num_machines=1, space=4)
    eng.load_balanced_packed(np.arange(4))
    with pytest.raises(SpaceExceededError) as err:
        broadcast_word(eng, 7)
    assert (err.value.machine, err.value.words) == (0, 6)


def test_prefix_sums_single_level():
    eng = MPCEngine(num_machines=4, space=32)
    eng.load_balanced([1, 2, 3, 4, 5, 6, 7, 8])
    rounds = distributed_prefix_sums(eng)
    assert eng.all_items() == [1, 3, 6, 10, 15, 21, 28, 36]
    assert rounds <= 5


def test_prefix_sums_multi_level():
    # Force the multi-level path: fanout = space // 6 = 4 < M = 5.
    eng = MPCEngine(num_machines=5, space=24)
    eng.load_balanced([1] * 10)
    rounds = distributed_prefix_sums(eng)
    assert eng.all_items() == list(range(1, 11))
    assert rounds <= 7


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=40))
def test_prefix_sums_hypothesis(values):
    eng = MPCEngine(num_machines=4, space=64)
    eng.load_balanced(values)
    distributed_prefix_sums(eng)
    assert eng.all_items() == list(np.cumsum(values))


def _sorted_values(eng: MPCEngine) -> list[int]:
    """Machine-major concatenation of the raw values after a sort."""
    values = eng.tables[""]
    return np.concatenate(
        [values.on(mid)[:, 0] for mid in range(eng.num_machines)]
    ).tolist()


def test_sort_correct_and_constant_rounds():
    eng = MPCEngine(num_machines=4, space=64)
    data = [5, 3, 8, 1, 9, 2, 7, 7, 0, -4, 11, 6]
    eng.load_balanced_packed(np.array(data))
    rounds = distributed_sort_packed(eng)
    assert _sorted_values(eng) == sorted(data)
    assert rounds == 3  # sample, splitters, partition


def test_sort_single_machine():
    eng = MPCEngine(num_machines=1, space=64)
    eng.load_balanced_packed(np.array([3, 1, 2]))
    assert distributed_sort_packed(eng) == 0
    assert _sorted_values(eng) == [1, 2, 3]


def test_sort_requires_sample_capacity():
    eng = MPCEngine(num_machines=10, space=50)  # 10*9 = 90 > 50
    eng.load_balanced_packed(np.arange(40))
    with pytest.raises(ValueError):
        distributed_sort_packed(eng)


@given(st.lists(st.integers(0, 1000), max_size=48))
def test_sort_hypothesis(values):
    eng = MPCEngine(num_machines=4, space=256)
    eng.load_balanced_packed(np.array(values, dtype=np.int64))
    distributed_sort_packed(eng)
    assert _sorted_values(eng) == sorted(values)


def test_sort_respects_space_throughout():
    """Sorting adversarially skewed input never exceeds machine space."""
    eng = MPCEngine(num_machines=4, space=64)
    eng.load_balanced_packed(np.array([0] * 20 + list(range(20))))
    distributed_sort_packed(eng)
    assert eng.max_words_seen <= 64
