"""k-wise independent hash families (paper Definition 5 / Lemma 6).

We implement the classical degree-``(k-1)`` polynomial construction over a
prime field ``Z_q``:

    ``h_{a_0..a_{k-1}}(x) = a_{k-1} x^{k-1} + ... + a_1 x + a_0  (mod q)``

For uniformly random coefficients, the values ``h(x_1), ..., h(x_k)`` at any
``k`` distinct points are independent and uniform over ``[q]`` -- exactly the
guarantee Definition 5 asks for, with seed length ``k * ceil(log2 q)`` bits,
matching Lemma 6's ``k * max{a, b}`` random bits.

Evaluation is fully vectorised: Horner's rule steps in signed ``int64`` and
reduces with ``h - (h // q) * q``; the field size is capped below ``2**31``
so every intermediate stays below ``2**62``.  Values are returned as
``uint64``.

The paper's family maps ``[n^3] -> [n^3]`` purely so that additive ``1/n^3``
error terms vanish asymptotically.  We keep the field size a parameter
(``q = Theta(n)`` by default in the algorithms) and track the ``O(1/q)`` bias
explicitly; :class:`~repro.hashing.families.ProductHashFamily` pairs two
independent copies when a wide, collision-free value range is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .primes import is_prime, next_prime

#: Largest permitted field size: keeps ``(q-1)**2 + (q-1) < 2**62`` so Horner
#: steps never overflow int64.
MAX_FIELD = 2**31 - 1


def _as_uint64(xs: np.ndarray | int) -> np.ndarray:
    arr = np.asarray(xs, dtype=np.uint64)
    return arr


@dataclass(frozen=True)
class KWiseHashFamily:
    """Family of k-wise independent functions ``h : [q] -> [q]``.

    Parameters
    ----------
    q:
        Field size; must be prime and ``<= MAX_FIELD``.  The domain of the
        functions is ``[q]`` (callers hash ids ``< q``) and the raw output
        range is ``[q]``.
    k:
        Independence parameter (``k >= 1``).  ``k = 2`` is the pairwise
        family used by the Luby selection steps; the sparsification stages
        use ``k = c`` for a constant ``c >= 2`` (paper Section 3.2).

    A *seed* is an integer in ``[0, q**k)`` encoding the coefficient vector
    ``(a_0, ..., a_{k-1})`` in base ``q``.  For ``k >= 2`` the *linear*
    coefficient ``a_1`` occupies the least significant digit (then ``a_0``,
    then ``a_2, a_3, ...``): deterministic seed *scans* enumerate seeds in
    increasing order, and this digit order makes the first ``q`` functions
    scanned the non-degenerate linear maps ``x -> a_1 x`` rather than the
    constant functions ``x -> a_0``.  The family itself is unchanged (it is
    the same set of functions, re-indexed), so all independence guarantees
    are unaffected.
    """

    q: int
    k: int
    _powers: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"independence k must be >= 1, got {self.k}")
        if self.q > MAX_FIELD:
            raise ValueError(f"field size {self.q} exceeds MAX_FIELD={MAX_FIELD}")
        if not is_prime(self.q):
            raise ValueError(f"field size must be prime, got {self.q}")
        object.__setattr__(self, "_powers", tuple(self.q**j for j in range(self.k + 1)))

    # ------------------------------------------------------------------ #
    # Family metadata
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Number of functions in the family, ``q**k``."""
        return self._powers[self.k]

    @property
    def seed_bits(self) -> int:
        """Bits needed to specify a seed (paper: ``O(k log q)``)."""
        return max(1, (self.size - 1).bit_length())

    @property
    def domain(self) -> int:
        return self.q

    @property
    def range(self) -> int:
        return self.q

    @property
    def independence(self) -> int:
        return self.k

    # ------------------------------------------------------------------ #
    # Seed codec
    # ------------------------------------------------------------------ #

    def _digit_order(self) -> tuple[int, ...]:
        """Coefficient index stored in each base-q seed digit (see class doc)."""
        if self.k >= 2:
            return (1, 0) + tuple(range(2, self.k))
        return (0,)

    def coefficients(self, seed: int) -> tuple[int, ...]:
        """Decode a seed into its coefficient vector ``(a_0, ..., a_{k-1})``."""
        if not 0 <= seed < self.size:
            raise ValueError(f"seed {seed} out of range [0, {self.size})")
        coeffs = [0] * self.k
        s = seed
        for idx in self._digit_order():
            coeffs[idx] = s % self.q
            s //= self.q
        return tuple(coeffs)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def evaluate(self, seed: int, xs: np.ndarray | int) -> np.ndarray:
        """Evaluate ``h_seed`` at the points ``xs`` (vectorised).

        ``xs`` must contain values in ``[0, q)``; the result is a uint64
        array of values in ``[0, q)``.
        """
        coeffs = self.coefficients(seed)
        x = _as_uint64(xs)
        if x.size and int(x.max(initial=0)) >= self.q:
            raise ValueError("hash input outside field domain; reduce ids first")
        x = x.view(np.int64)  # values below q < 2**31 read the same
        q = np.int64(self.q)
        # Horner: h = (((a_{k-1} x + a_{k-2}) x + ...) x + a_0)
        h = np.full_like(x, coeffs[-1])
        t = np.empty_like(h)
        for a in reversed(coeffs[:-1]):
            h *= x
            h += a
            np.floor_divide(h, q, out=t)
            t *= q
            h -= t
        return h.view(np.uint64)

    def evaluate_batch(self, seeds: np.ndarray, xs: np.ndarray | int) -> np.ndarray:
        """Evaluate ``S`` functions at ``N`` points: returns ``(S, N)`` uint64.

        Generalizes :meth:`evaluate` over a whole seed block: row ``i``
        equals ``evaluate(seeds[i], xs)`` bit-for-bit.

        Two evaluation tiers:

        * *contiguous seed runs* (what the deterministic scans produce):
          digit 0 of the seed is the linear coefficient (see the class
          doc), so ``h_{s+1}(x) = h_s(x) + x  (mod q)`` until the digit
          rolls over -- one Horner base evaluation per run, then a single
          add + conditional subtract per further seed, replacing the
          multiply-mod chain entirely;
        * arbitrary seed blocks: per-seed coefficient vectors stacked into
          ``(k, S)`` columns and one Horner recurrence over the ``(S, N)``
          grid.
        """
        seed_arr = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
        x = np.atleast_1d(_as_uint64(xs))
        if x.size and int(x.max(initial=0)) >= self.q:
            raise ValueError("hash input outside field domain; reduce ids first")
        S = seed_arr.size
        if S > 1 and int(seed_arr[-1]) - int(seed_arr[0]) == S - 1 and bool(
            np.all(np.diff(seed_arr) == 1)
        ):
            return self._evaluate_contiguous(int(seed_arr[0]), S, x)
        q = np.int64(self.q)
        x = x.view(np.int64)
        coeffs = self._stacked_coefficients(seed_arr).view(np.int64)
        h = np.empty((S, x.size), dtype=np.int64)
        h[:] = coeffs[self.k - 1][:, None]
        t = np.empty_like(h)
        for j in range(self.k - 2, -1, -1):
            h *= x[None, :]
            h += coeffs[j][:, None]
            np.floor_divide(h, q, out=t)
            t *= q
            h -= t
        return h.view(np.uint64)

    def _evaluate_contiguous(self, s0: int, count: int, x: np.ndarray) -> np.ndarray:
        """Incremental evaluation of the contiguous seed run ``[s0, s0+count)``.

        Digit 0 of the seed holds the linear coefficient ``a_1`` when
        ``k >= 2`` (``a_0`` when ``k == 1``), so stepping the seed by one
        adds ``x`` (resp. ``1``) to the hash value mod ``q`` -- until the
        digit rolls over, where a fresh Horner base is computed.  Values
        stay in ``[0, q)`` throughout, so the reduction is a single
        compare-and-subtract; the result is bit-identical to per-seed
        :meth:`evaluate`.
        """
        if not (0 <= s0 and s0 + count <= self.size):
            raise ValueError(f"seed run [{s0}, {s0 + count}) out of range")
        q = np.uint64(self.q)
        step = x if self.k >= 2 else np.ones_like(x)
        out = np.empty((count, x.size), dtype=np.uint64)
        tmp = np.empty(x.size, dtype=np.uint64)
        i = 0
        while i < count:
            s = s0 + i
            run = min(count - i, self.q - (s % self.q))
            out[i] = self.evaluate(s, x)
            for j in range(i + 1, i + run):
                # Branch-free mod-q step: t = h + step < 2q, and t - q
                # wraps around uint64 when t < q, so min(t, t - q) is the
                # reduced value either way.
                row = out[j]
                np.add(out[j - 1], step, out=tmp)
                np.subtract(tmp, q, out=row)
                np.minimum(tmp, row, out=row)
            i += run
        return out

    def _stacked_coefficients(self, seed_arr: np.ndarray) -> np.ndarray:
        """Decode a seed block to a ``(k, S)`` uint64 coefficient matrix."""
        if seed_arr.size and int(seed_arr.min()) < 0:
            raise ValueError("seeds must be non-negative")
        if seed_arr.size and int(seed_arr.max()) >= self.size:
            raise ValueError(f"seed out of range [0, {self.size})")
        q = np.uint64(self.q)
        coeffs = np.empty((self.k, seed_arr.size), dtype=np.uint64)
        if self._powers[self.k - 1] < 2**63:
            # Digit extraction stays exact in uint64 for every valid seed.
            s = seed_arr.astype(np.uint64)
            for digit, idx in enumerate(self._digit_order()):
                coeffs[idx] = (s // np.uint64(self._powers[digit])) % q
        else:  # huge families: decode with exact Python ints, seed by seed
            for i, s in enumerate(seed_arr.tolist()):
                for idx, a in enumerate(self.coefficients(int(s))):
                    coeffs[idx, i] = a
        return coeffs

    def indicator_batch(
        self, seeds: np.ndarray, xs: np.ndarray | int, threshold: int
    ) -> np.ndarray:
        """``(S, N)`` bool block: ``evaluate_batch(seeds, xs) < threshold``.

        For contiguous seed runs the hash rows live in two rotating uint32
        row buffers and only the boolean indicator is materialised -- the
        hash matrix itself (8 bytes/cell) never touches memory, which is
        what makes threshold-sampling scans bandwidth-proportional to the
        1-bit output.  Hash values and ids are below ``q <= MAX_FIELD <
        2**31``, so a step's ``h + x`` stays below ``2**32``.  Bit-identical
        to comparing :meth:`evaluate_batch`.
        """
        seed_arr = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
        x = np.atleast_1d(_as_uint64(xs))
        if x.size and int(x.max(initial=0)) >= self.q:
            raise ValueError("hash input outside field domain; reduce ids first")
        S = seed_arr.size
        t = np.uint64(threshold)
        if S > 1 and int(seed_arr[-1]) - int(seed_arr[0]) == S - 1 and bool(
            np.all(np.diff(seed_arr) == 1)
        ):
            s0, count = int(seed_arr[0]), S
            if not (0 <= s0 and s0 + count <= self.size):
                raise ValueError(f"seed run [{s0}, {s0 + count}) out of range")
            q = np.uint32(self.q)
            t = np.uint32(min(threshold, self.q))  # every value is below q
            step = x.astype(np.uint32) if self.k >= 2 else np.ones(x.size, np.uint32)
            out = np.empty((count, x.size), dtype=bool)
            prev = np.empty(x.size, dtype=np.uint32)
            tmp = np.empty(x.size, dtype=np.uint32)
            i = 0
            while i < count:
                s = s0 + i
                run = min(count - i, self.q - (s % self.q))
                prev[:] = self.evaluate(s, x)
                np.less(prev, t, out=out[i])
                for j in range(i + 1, i + run):
                    np.add(prev, step, out=tmp)
                    np.subtract(tmp, q, out=prev)
                    np.minimum(tmp, prev, out=prev)
                    np.less(prev, t, out=out[j])
                i += run
            return out
        return self.evaluate_batch(seed_arr, x) < t

    def threshold(self, prob: float) -> int:
        """Threshold ``t`` such that ``h(x) < t`` has probability ``~prob``.

        ``Pr[h(x) < t] = t / q`` exactly, so the realised probability is
        ``floor(prob * q) / q`` which differs from ``prob`` by less than
        ``1/q`` -- the additive error the paper bounds by ``1/n^3``.
        """
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {prob}")
        return min(self.q, int(prob * self.q))

    def sample_indicator(self, seed: int, xs: np.ndarray, prob: float) -> np.ndarray:
        """Boolean mask: which of ``xs`` are 'sampled' at rate ``prob``.

        This is the paper's subsampling primitive: ``e in E_h`` iff
        ``h(e) <= n^{3-delta}`` (Section 3.2), generalised to an arbitrary
        rate.
        """
        t = self.threshold(prob)
        return self.evaluate(seed, xs) < np.uint64(t)


def make_family(universe: int, k: int, *, min_q: int = 257) -> KWiseHashFamily:
    """Construct a k-wise family whose field covers ``[0, universe)``.

    ``min_q`` keeps the range granular enough for threshold sampling even on
    tiny inputs (the paper works with range ``n^3``; a floor of a few hundred
    keeps the ``1/q`` bias below half a percent on toy graphs).
    """
    q = next_prime(max(universe, min_q, 2))
    if q > MAX_FIELD:
        raise ValueError(
            f"universe {universe} needs field > MAX_FIELD; shard ids first"
        )
    return KWiseHashFamily(q=q, k=k)
