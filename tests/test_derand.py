"""Tests for seed selection strategies and concentration estimators."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.derand import select_seed_batch, slack_for_failure_array


def table(values):
    """A batch objective reading seed ``s``'s value from ``values[s]``."""
    arr = np.asarray(values, dtype=np.float64)
    return lambda seeds: arr[seeds]


def constant(value):
    return lambda seeds: np.full(seeds.size, value, dtype=np.float64)


# --------------------------------------------------------------------- #
# conditional expectation (the Section-2.4 guarantee)
# --------------------------------------------------------------------- #


def test_cond_exp_beats_mean_simple():
    values = [0.0, 10.0, 2.0, 3.0]
    sel = select_seed_batch(4, table(values), strategy="conditional_expectation")
    assert sel.satisfied
    assert sel.value >= np.mean(values)
    assert sel.family_mean == pytest.approx(np.mean(values))


def test_cond_exp_single_seed():
    sel = select_seed_batch(1, constant(5.0), strategy="conditional_expectation")
    assert sel.seed == 0 and sel.value == 5.0


def test_cond_exp_is_prefix_descent_not_argmax():
    """The method follows subtree means, which can miss the global argmax --
    but never the mean.  Construct a case where argmax hides in the
    low-mean half."""
    # left half [0,1]: values 6, 6 (mean 6); right half [2,3]: 0, 11 (mean 5.5)
    values = [6.0, 6.0, 0.0, 11.0]
    sel = select_seed_batch(4, table(values), strategy="conditional_expectation")
    assert sel.seed in (0, 1)  # descended into the higher-mean half
    assert sel.value >= np.mean(values)


def test_cond_exp_non_power_of_two():
    values = [1.0, 2.0, 3.0, 4.0, 100.0]
    sel = select_seed_batch(5, table(values), strategy="conditional_expectation")
    assert sel.value >= np.mean(values)


def test_cond_exp_enumeration_cap():
    with pytest.raises(ValueError):
        select_seed_batch(
            1 << 20, constant(0.0), strategy="conditional_expectation",
            enumeration_cap=1 << 16,
        )


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=64))
def test_cond_exp_always_at_least_mean(values):
    sel = select_seed_batch(
        len(values), table(values), strategy="conditional_expectation"
    )
    assert sel.value >= np.mean(values) - 1e-9


# --------------------------------------------------------------------- #
# scan
# --------------------------------------------------------------------- #


def test_scan_stops_at_first_hit():
    values = [1.0, 2.0, 9.0, 9.0]
    sel = select_seed_batch(4, table(values), strategy="scan", target=9.0)
    assert sel.seed == 2
    assert sel.trials == 3
    assert sel.satisfied


def test_scan_returns_best_on_exhaustion():
    values = [1.0, 5.0, 2.0]
    sel = select_seed_batch(3, table(values), strategy="scan", target=100.0)
    assert not sel.satisfied
    assert sel.seed == 1 and sel.value == 5.0


def test_scan_respects_max_trials():
    calls = []
    sel = select_seed_batch(
        1000,
        lambda seeds: calls.extend(seeds.tolist()) or np.zeros(seeds.size),
        strategy="scan",
        target=1.0,
        max_trials=10,
    )
    assert len(calls) == 10
    assert not sel.satisfied


def test_scan_start_offset():
    values = [100.0] + [0.0] * 9 + [7.0]
    sel = select_seed_batch(
        11, table(values), strategy="scan", target=7.0, start=1
    )
    assert sel.seed == 10  # seed 0 skipped


def test_scan_requires_target():
    with pytest.raises(ValueError):
        select_seed_batch(4, constant(0.0), strategy="scan")


# --------------------------------------------------------------------- #
# best_of / misc
# --------------------------------------------------------------------- #


def test_best_of_takes_argmax_of_prefix():
    values = [3.0, 9.0, 1.0, 50.0]
    sel = select_seed_batch(4, table(values), strategy="best_of", best_of_k=3)
    assert sel.seed == 1  # 50.0 lives outside the prefix


def test_unknown_strategy():
    with pytest.raises(ValueError):
        select_seed_batch(4, constant(0.0), strategy="bogus")


def test_empty_family():
    with pytest.raises(ValueError):
        select_seed_batch(0, constant(0.0), strategy="scan", target=0.0)


# --------------------------------------------------------------------- #
# estimators
# --------------------------------------------------------------------- #


# The two tails the slacks invert: Lemma 9 (Bellare-Rompel, even c >= 4)
# and Chebyshev (pairwise, c = 2).


def bellare_rompel_tail(c, t, lam):
    return 2.0 * (c * t / (lam * lam)) ** (c / 2)


def chebyshev_tail(variance, lam):
    return variance / (lam * lam)


def slack(c, t, fail_prob, p=None):
    return float(slack_for_failure_array(c, np.array([t]), fail_prob, p=p)[0])


def test_bellare_rompel_monotone_in_lambda():
    # A smaller failure budget needs a wider window.
    assert slack(4, 100.0, 0.01) > slack(4, 100.0, 0.1)
    assert bellare_rompel_tail(4, 100, 50) < bellare_rompel_tail(4, 100, 20)


def test_bellare_rompel_requires_even_c_ge_4():
    for c in (3, 5):
        with pytest.raises(ValueError):
            slack(c, 10.0, 0.5)


def test_chebyshev_bound():
    # Without a rate the variance is the worst case t / 4.
    assert slack(2, 100.0, 0.25) == 10.0
    assert chebyshev_tail(25, 10) == 0.25


def test_slack_for_failure_inverts_chebyshev():
    lam = slack(2, 100.0, 0.01, p=0.5)
    assert chebyshev_tail(100 * 0.25, lam) <= 0.01 + 1e-12


def test_slack_for_failure_inverts_bellare_rompel():
    lam = slack(4, 100.0, 0.01)
    assert bellare_rompel_tail(4, 100, lam) <= 0.01 + 1e-12


def test_slack_for_failure_zero_items():
    lams = slack_for_failure_array(4, np.array([0.0, 9.0]), 0.5)
    assert lams[0] == 0.0 and lams[1] > 0.0


def test_slack_for_failure_rejects_bad_prob():
    for fail_prob in (0.0, 1.5):
        with pytest.raises(ValueError):
            slack(4, 10.0, fail_prob)
