"""Composite hash families and the small-seed family of paper Section 5.

Two constructions on top of :class:`~repro.hashing.kwise.KWiseHashFamily`:

* :class:`ProductHashFamily` -- pairs two independent k-wise families to get
  k-wise independent values over the product range ``[q0 * q1]``.  This gives
  the "wide" value range the paper gets from ``[n^3]``: with
  ``q0, q1 = Theta(n)`` the combined range is ``Theta(n^2)`` and ties among
  distinct ids occur with probability ``O(1/n^2)`` per pair, so the
  local-minimum selection of Luby's algorithm is effectively tie-free (we
  additionally break residual ties by id, which only helps progress).

* :func:`make_color_family` -- the Section-5 family ``H*``: a pairwise
  family over the *color space* ``[O(Delta^4)]`` of a distance-2 coloring,
  so a seed costs only ``O(log Delta)`` bits instead of ``O(log n)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kwise import KWiseHashFamily, make_family
from .primes import next_prime


@dataclass(frozen=True)
class ProductHashFamily:
    """k-wise independent ``h : [min(q0,q1)] -> [q0*q1]`` from two fields.

    A seed is ``s = s1 * size0 + s0`` combining seeds of the two component
    families; the value is ``h(x) = h1(x) * q0 + h0(x)``.  Since the two
    component coefficient vectors are chosen independently and each family is
    k-wise independent over its own field, the pair ``(h1(x), h0(x))`` is
    k-wise independent and uniform over ``[q1] x [q0]``, hence ``h(x)`` is
    k-wise independent and uniform over ``[q0 * q1]``.
    """

    f0: KWiseHashFamily
    f1: KWiseHashFamily

    def __post_init__(self) -> None:
        if self.f0.k != self.f1.k:
            raise ValueError("component families must share independence k")

    @property
    def k(self) -> int:
        return self.f0.k

    @property
    def independence(self) -> int:
        return self.f0.k

    @property
    def domain(self) -> int:
        return min(self.f0.q, self.f1.q)

    @property
    def range(self) -> int:
        return self.f0.q * self.f1.q

    @property
    def size(self) -> int:
        return self.f0.size * self.f1.size

    @property
    def seed_bits(self) -> int:
        return max(1, (self.size - 1).bit_length())

    def split_seed(self, seed: int) -> tuple[int, int]:
        if not 0 <= seed < self.size:
            raise ValueError(f"seed {seed} out of range [0, {self.size})")
        return seed % self.f0.size, seed // self.f0.size

    def evaluate(self, seed: int, xs: np.ndarray | int) -> np.ndarray:
        s0, s1 = self.split_seed(seed)
        v0 = self.f0.evaluate(s0, xs)
        v1 = self.f1.evaluate(s1, xs)
        return v1 * np.uint64(self.f0.q) + v0

    def split_seeds(self, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`split_seed` over an int64 seed block."""
        seed_arr = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
        if seed_arr.size and (
            int(seed_arr.min()) < 0 or int(seed_arr.max()) >= self.size
        ):
            raise ValueError(f"seed out of range [0, {self.size})")
        if self.f0.size < 2**62:
            size0 = np.int64(self.f0.size)
            return seed_arr % size0, seed_arr // size0
        s0 = np.empty(seed_arr.size, dtype=np.int64)
        s1 = np.empty(seed_arr.size, dtype=np.int64)
        for i, s in enumerate(seed_arr.tolist()):  # exact for huge components
            s0[i], s1[i] = self.split_seed(int(s))
        return s0, s1

    def evaluate_batch(self, seeds: np.ndarray, xs: np.ndarray | int) -> np.ndarray:
        """``(S, N)`` uint64 block evaluation; row ``i`` == ``evaluate(seeds[i], xs)``.

        Contiguous seed blocks (the scan case) decompose into a contiguous
        ``f0`` run and an ``f1`` component that is *constant* until ``s0``
        wraps around ``f0.size`` -- so the second field is evaluated once
        per run and broadcast, and ``f0`` takes its own incremental path.
        """
        s0, s1 = self.split_seeds(seeds)
        v0 = self.f0.evaluate_batch(s0, xs)
        if s1.size > 1 and int(s1[0]) == int(s1[-1]) and bool(np.all(s1 == s1[0])):
            v1_row = self.f1.evaluate(int(s1[0]), xs)
            return np.atleast_1d(v1_row)[None, :] * np.uint64(self.f0.q) + v0
        v1 = self.f1.evaluate_batch(s1, xs)
        return v1 * np.uint64(self.f0.q) + v0


def make_product_family(universe: int, k: int, *, min_q: int = 257) -> ProductHashFamily:
    """Product family with both fields covering ``[0, universe)``.

    The two fields are chosen as *distinct* consecutive primes so the
    component families are not trivially correlated under the canonical
    seed-scan order used by deterministic search.
    """
    q0 = next_prime(max(universe, min_q, 2))
    q1 = next_prime(q0 + 1)
    return ProductHashFamily(KWiseHashFamily(q=q0, k=k), KWiseHashFamily(q=q1, k=k))


def make_color_family(num_colors: int) -> KWiseHashFamily:
    """The Section-5 family ``H*``: pairwise over ``[num_colors]``.

    Nodes are renamed by a distance-2 coloring ``chi`` with ``C`` colors
    (``C = O(Delta^4)`` after Linial coloring of ``G^2``); hashing the color
    instead of the id shrinks the seed to ``2 ceil(log2 C')`` bits where
    ``C'`` is the field covering the colors.  Because any two nodes within
    two hops have distinct colors, the pairwise independence *within every
    2-hop neighbourhood* -- all that Luby's analysis needs -- is preserved.
    """
    return make_family(num_colors, k=2, min_q=max(num_colors, 5))
