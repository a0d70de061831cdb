"""Tests for repro.hashing.primes."""

import pytest
from hypothesis import given, strategies as st

from repro.hashing import is_prime, next_prime


KNOWN_PRIMES = [2, 3, 5, 7, 11, 13, 101, 257, 65537, 2**31 - 1]
KNOWN_COMPOSITES = [0, 1, 4, 9, 15, 100, 65536, 2**31, 561, 41041]  # incl. Carmichael


@pytest.mark.parametrize("p", KNOWN_PRIMES)
def test_known_primes(p):
    assert is_prime(p)


@pytest.mark.parametrize("c", KNOWN_COMPOSITES)
def test_known_composites(c):
    assert not is_prime(c)


def test_negative_not_prime():
    assert not is_prime(-7)


def test_next_prime_basics():
    assert next_prime(0) == 2
    assert next_prime(2) == 2
    assert next_prime(3) == 3
    assert next_prime(4) == 5
    assert next_prime(14) == 17
    assert next_prime(2**16) == 65537


@given(st.integers(min_value=2, max_value=200_000))
def test_next_prime_is_minimal_prime_at_least_n(n):
    q = next_prime(n)
    assert q >= n
    assert is_prime(q)
    # Nothing between n and q is prime.
    for k in range(n, q):
        assert not is_prime(k)


@given(st.integers(min_value=2, max_value=10_000))
def test_trial_division_agreement(n):
    """Miller-Rabin agrees with trial division on a sampled range."""
    def slow(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    assert is_prime(n) == slow(n)
