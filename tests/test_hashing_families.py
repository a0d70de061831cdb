"""Tests for product and color hash families."""


import numpy as np
import pytest

from repro.hashing import (
    KWiseHashFamily,
    make_color_family,
    make_product_family,
    ProductHashFamily,
)


def test_product_family_metadata():
    fam = make_product_family(100, k=2, min_q=101)
    assert fam.range == fam.f0.q * fam.f1.q
    assert fam.size == fam.f0.size * fam.f1.size
    assert fam.domain >= 100
    assert fam.f0.q != fam.f1.q  # distinct consecutive primes


def test_product_rejects_mismatched_k():
    with pytest.raises(ValueError):
        ProductHashFamily(KWiseHashFamily(q=11, k=2), KWiseHashFamily(q=13, k=3))


def test_product_seed_split_roundtrip():
    fam = make_product_family(10, k=2, min_q=11)
    for seed in [0, 1, fam.f0.size, fam.size - 1]:
        s0, s1 = fam.split_seed(seed)
        assert s1 * fam.f0.size + s0 == seed


def test_product_split_rejects_out_of_range():
    fam = make_product_family(10, k=2, min_q=11)
    with pytest.raises(ValueError):
        fam.split_seed(fam.size)


def test_product_evaluate_combines_components():
    fam = make_product_family(10, k=2, min_q=11)
    xs = np.arange(fam.domain, dtype=np.int64)
    seed = 12345 % fam.size
    s0, s1 = fam.split_seed(seed)
    v = fam.evaluate(seed, xs)
    v0 = fam.f0.evaluate(s0, xs)
    v1 = fam.f1.evaluate(s1, xs)
    assert np.array_equal(v, v1 * np.uint64(fam.f0.q) + v0)


def test_product_pairwise_independence_exact_tiny():
    """Exhaustive: pair values uniform over the product range for 2 points."""
    f0 = KWiseHashFamily(q=3, k=2)
    f1 = KWiseHashFamily(q=5, k=2)
    fam = ProductHashFamily(f0, f1)
    r = fam.range
    counts = np.zeros((r, r), dtype=np.int64)
    for seed in range(fam.size):
        v = fam.evaluate(seed, np.array([0, 2]))
        counts[int(v[0]), int(v[1])] += 1
    assert np.all(counts == fam.size // (r * r))


def test_color_family_seed_bits_scale_with_colors():
    small = make_color_family(16)
    big = make_color_family(4096)
    assert small.seed_bits < big.seed_bits
    assert small.q >= 16
    assert big.q >= 4096


def test_color_family_evaluates_colors():
    fam = make_color_family(10)
    colors = np.array([0, 3, 9, 9, 1], dtype=np.int64)
    z = fam.evaluate(2, colors)
    assert z.shape == (5,)
    # equal colors hash equally -- the whole point of the renaming trick
    assert z[2] == z[3]


def test_color_family_pairwise_on_colors():
    fam = make_color_family(5)
    q = fam.q
    counts = np.zeros((q, q), dtype=np.int64)
    for seed in range(fam.size):
        v = fam.evaluate(seed, np.array([1, 4]))
        counts[int(v[0]), int(v[1])] += 1
    assert np.all(counts == fam.size // (q * q))
