"""Prime utilities for constructing hash-function families over Z_q.

The polynomial hash families in this package (see :mod:`repro.hashing.kwise`)
work over a prime field ``Z_q``.  The paper (Lemma 6, citing Vadhan Cor. 3.34)
uses fields of characteristic 2; a prime field of comparable size gives the
identical k-wise independence guarantee and is much cheaper to evaluate with
vectorised integer arithmetic, so we use ``Z_q`` throughout and pick ``q`` as
the smallest prime at least as large as both the id universe and the value
range we need.

All primality testing is deterministic for 64-bit inputs (Miller-Rabin with
the standard proven witness set).
"""

from __future__ import annotations

# Witnesses proven sufficient for deterministic Miller-Rabin below 3.3 * 10^24
# (Sorenson & Webster 2015); far beyond the 64-bit inputs we use.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Primes smaller than the first witness-set threshold, handled directly.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministically test primality of ``n`` (valid for ``n < 3.3e24``)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n - 1 = d * 2^s with d odd.
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime ``q >= n``.  ``next_prime(k) >= 2`` for all ``k``."""
    q = max(2, int(n))
    if q <= 2:
        return 2
    if q % 2 == 0:
        q += 1
    while not is_prime(q):
        q += 2
    return q
