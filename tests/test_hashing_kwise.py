"""Tests for the polynomial k-wise independent family (paper Lemma 6)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.hashing import KWiseHashFamily, make_family
from repro.hashing.kwise import MAX_FIELD


def test_family_metadata():
    fam = KWiseHashFamily(q=13, k=2)
    assert fam.size == 169
    assert fam.domain == 13
    assert fam.range == 13
    assert fam.independence == 2
    assert fam.seed_bits == 8  # ceil(log2 168) = 8


def test_rejects_composite_field():
    with pytest.raises(ValueError):
        KWiseHashFamily(q=12, k=2)


def test_rejects_bad_k():
    with pytest.raises(ValueError):
        KWiseHashFamily(q=13, k=0)


def test_rejects_oversized_field():
    with pytest.raises(ValueError):
        KWiseHashFamily(q=2**31 + 11, k=2)


def encode(q: int, coeffs) -> int:
    """The documented seed layout: base-``q`` digits ``a_1, a_0, a_2, ...``,
    least significant first."""
    digits = [coeffs[1], coeffs[0], *coeffs[2:]] if len(coeffs) >= 2 else list(coeffs)
    return sum(a * q**i for i, a in enumerate(digits))


def test_seed_codec_roundtrip_small():
    fam = KWiseHashFamily(q=7, k=3)
    for seed in range(fam.size):
        coeffs = fam.coefficients(seed)
        assert encode(fam.q, coeffs) == seed


@given(st.integers(min_value=0, max_value=13**4 - 1))
def test_seed_codec_roundtrip_hypothesis(seed):
    fam = KWiseHashFamily(q=13, k=4)
    assert encode(fam.q, fam.coefficients(seed)) == seed


def test_linear_coefficient_in_low_digit():
    """Scan order must reach non-constant functions first (seed digit order)."""
    fam = KWiseHashFamily(q=13, k=2)
    # seeds 1..q-1 decode to a_1 = seed, a_0 = 0: genuine linear maps.
    for seed in range(1, 13):
        a0, a1 = fam.coefficients(seed)
        assert a0 == 0 and a1 == seed


def test_evaluation_matches_horner():
    fam = KWiseHashFamily(q=101, k=3)
    seed = encode(fam.q, (5, 17, 42))
    xs = np.arange(101, dtype=np.int64)
    got = fam.evaluate(seed, xs)
    want = (42 * xs**2 + 17 * xs + 5) % 101
    assert np.array_equal(got.astype(np.int64), want)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_horner_at_the_largest_field(k):
    """At ``q = MAX_FIELD``, with ids up to ``q - 1`` and the family's top
    seed (every coefficient ``q - 1``), ``evaluate`` and the general branch
    of ``evaluate_batch`` equal Horner in Python ints: no int64 step may
    overflow."""
    q = MAX_FIELD
    fam = KWiseHashFamily(q=q, k=k)
    xs = np.array([0, 1, 2, q // 2, q - 2, q - 1], dtype=np.int64)

    def horner(seed: int) -> list[int]:
        out = []
        for x in xs.tolist():
            h = 0
            for a in reversed(fam.coefficients(seed)):
                h = (h * x + a) % q
            out.append(h)
        return out

    top = fam.size - 1
    assert fam.coefficients(top) == (q - 1,) * k
    for seed in (top, top - 1, 1):
        got = fam.evaluate(seed, xs)
        assert got.dtype == np.uint64 and got.tolist() == horner(seed)
    # A non-contiguous block takes the general branch; seeds must fit int64.
    big = min(top, 2**63 - 1)
    seeds = np.array([big, 1, big - 7], dtype=np.int64)
    block = fam.evaluate_batch(seeds, xs)
    assert block.dtype == np.uint64
    assert block.tolist() == [horner(int(s)) for s in seeds]


def test_evaluate_rejects_out_of_domain():
    fam = KWiseHashFamily(q=13, k=2)
    with pytest.raises(ValueError):
        fam.evaluate(1, np.array([13]))


def test_evaluate_many_consistency():
    """Every seed of the family at one point, as one ``evaluate_batch``."""
    fam = KWiseHashFamily(q=31, k=2)
    seeds = np.arange(fam.size, dtype=np.int64)
    for x in [0, 1, 17, 30]:
        many = fam.evaluate_batch(seeds, np.array([x]))[:, 0]
        single = np.array([int(fam.evaluate(int(s), np.array([x]))[0]) for s in seeds])
        assert np.array_equal(many.astype(np.int64), single)


def test_pairwise_independence_exact():
    """Definition 5, verified exhaustively on a small field: for any two
    distinct points, the value pair is uniform over [q]^2."""
    q = 5
    fam = KWiseHashFamily(q=q, k=2)
    for x1, x2 in itertools.combinations(range(q), 2):
        counts = np.zeros((q, q), dtype=np.int64)
        for seed in range(fam.size):
            v = fam.evaluate(seed, np.array([x1, x2]))
            counts[int(v[0]), int(v[1])] += 1
        assert np.all(counts == fam.size // (q * q))


def test_3wise_independence_exact():
    q = 3
    fam = KWiseHashFamily(q=q, k=3)
    counts = np.zeros((q, q, q), dtype=np.int64)
    for seed in range(fam.size):
        v = fam.evaluate(seed, np.array([0, 1, 2]))
        counts[int(v[0]), int(v[1]), int(v[2])] += 1
    assert np.all(counts == fam.size // q**3)


def test_single_point_uniform():
    q = 7
    fam = KWiseHashFamily(q=q, k=2)
    for x in range(q):
        counts = np.zeros(q, dtype=np.int64)
        for seed in range(fam.size):
            counts[int(fam.evaluate(seed, np.array([x]))[0])] += 1
        assert np.all(counts == fam.size // q)


def test_threshold_probability():
    fam = KWiseHashFamily(q=101, k=2)
    assert fam.threshold(0.0) == 0
    assert fam.threshold(1.0) == 101
    t = fam.threshold(0.25)
    assert abs(t / 101 - 0.25) < 1.0 / 101


def test_threshold_rejects_bad_prob():
    fam = KWiseHashFamily(q=101, k=2)
    with pytest.raises(ValueError):
        fam.threshold(1.5)


def test_sample_indicator_rate_exact_over_family():
    """Averaged over the whole family, the sampling rate equals t/q exactly
    (each point is marginally uniform)."""
    q = 13
    fam = KWiseHashFamily(q=q, k=2)
    prob = 0.4
    t = fam.threshold(prob)
    xs = np.arange(q, dtype=np.int64)
    total = 0
    for seed in range(fam.size):
        total += int(fam.sample_indicator(seed, xs, prob).sum())
    assert total == fam.size * q * t // q / 1 * 1  # == size * q * (t/q)
    assert total == fam.size * t  # equivalent closed form


def test_make_family_covers_universe():
    fam = make_family(universe=1000, k=2)
    assert fam.q >= 1000
    xs = np.arange(1000, dtype=np.int64)
    fam.evaluate(3, xs)  # must not raise


def test_make_family_min_q_floor():
    fam = make_family(universe=10, k=2, min_q=257)
    assert fam.q >= 257
