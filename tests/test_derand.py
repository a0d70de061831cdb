"""Tests for the seed scan."""

import numpy as np
import pytest

from repro.derand import select_seed_batch


def table(values):
    """A batch objective reading seed ``s``'s value from ``values[s]``."""
    arr = np.asarray(values, dtype=np.float64)
    return lambda seeds: arr[seeds]


def constant(value):
    return lambda seeds: np.full(seeds.size, value, dtype=np.float64)


# --------------------------------------------------------------------- #
# scan
# --------------------------------------------------------------------- #


def test_scan_stops_at_first_hit():
    values = [1.0, 2.0, 9.0, 9.0]
    sel = select_seed_batch(4, table(values), target=9.0)
    assert sel.seed == 2
    assert sel.trials == 3
    assert sel.satisfied


def test_scan_returns_best_on_exhaustion():
    values = [1.0, 5.0, 2.0]
    sel = select_seed_batch(3, table(values), target=100.0)
    assert not sel.satisfied
    assert sel.seed == 1 and sel.value == 5.0


def test_scan_respects_max_trials():
    calls = []
    sel = select_seed_batch(
        1000,
        lambda seeds: calls.extend(seeds.tolist()) or np.zeros(seeds.size),
        target=1.0,
        max_trials=10,
    )
    assert len(calls) == 10
    assert not sel.satisfied


def test_scan_start_offset():
    values = [100.0] + [0.0] * 9 + [7.0]
    sel = select_seed_batch(11, table(values), target=7.0, start=1)
    assert sel.seed == 10  # seed 0 skipped


def test_scan_requires_target():
    with pytest.raises(TypeError, match="target"):
        select_seed_batch(4, constant(0.0))


def test_scan_requires_a_trial():
    with pytest.raises(ValueError, match="max_trials"):
        select_seed_batch(4, constant(0.0), target=0.0, max_trials=0)


def test_empty_family():
    with pytest.raises(ValueError):
        select_seed_batch(0, constant(0.0), target=0.0)
