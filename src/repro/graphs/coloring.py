"""Deterministic distance-2 coloring (Linial's algorithm, paper Section 5.1).

Section 5 renames nodes with ``O(log Delta)``-bit names such that any two
nodes within two hops get distinct names.  The paper computes an
``O(Delta^4)``-coloring ``chi`` of ``G^2`` with Linial's algorithm [42]
(CONGEST implementation by Kuhn [38]) in ``O(log* n)`` rounds.

We implement the classical polynomial variant of Linial's color reduction:
with current palette ``[K]``, pick a prime ``q > d * Delta`` where
``d = ceil(log_q K) - 1`` is the degree needed to encode a color as a
polynomial over ``GF(q)``; node ``v`` encodes its color ``c_v`` as the
coefficient vector of ``p_v`` and picks an evaluation point ``x`` where
``p_v(x) != p_u(x)`` for every neighbour ``u`` (possible since the at most
``d * Delta`` collision roots cannot cover ``GF(q)``).  The new color is the
pair ``(x, p_v(x))`` in a palette of size ``q^2``.  Each iteration roughly
squares ``log`` of the palette downward; ``O(log* n)`` iterations reach a
palette of size ``O(Delta^2 log^2 Delta)``.

For the Section-5 pipeline we color ``G^2`` (max degree ``<= Delta^2``),
yielding the ``O(Delta^4)``-ish distance-2 palette the paper needs.  The
reduction only reads each node's arcs (``indptr`` / ``indices``, in any order
within a row), so it colors ``G^2``'s unsorted two-hop pattern as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..hashing.primes import next_prime
from .graph import Graph
from .power import hop_pattern, square_graph

__all__ = [
    "ColoringResult",
    "distance2_coloring",
    "greedy_coloring",
    "linial_coloring",
    "validate_coloring",
    "validate_distance2_coloring",
]


#: What Linial colors: a graph, or a ``hop_pattern`` CSR of one.
Arcs = Graph | sp.csr_matrix


@dataclass(frozen=True)
class ColoringResult:
    """A proper coloring plus the cost metadata the round ledger charges."""

    colors: np.ndarray  # int64[n]
    num_colors: int  # palette size (max color + 1 actually used bound)
    iterations: int  # Linial reduction iterations (O(log* n))


def validate_coloring(g: Graph, colors: np.ndarray) -> bool:
    """True iff no edge of ``g`` is monochromatic."""
    c = np.asarray(colors)
    if c.shape != (g.n,):
        raise ValueError("colors must have shape (n,)")
    if g.m == 0:
        return True
    return bool(np.all(c[g.edges_u] != c[g.edges_v]))


def validate_distance2_coloring(g: Graph, colors: np.ndarray) -> bool:
    """True iff nodes at distance 1 or 2 in ``g`` always differ in color."""
    return validate_coloring(square_graph(g), colors)


def greedy_coloring(g: Graph) -> ColoringResult:
    """Sequential greedy coloring (<= Delta + 1 colors); deterministic.

    Not an MPC algorithm -- used as an oracle/baseline in tests and as the
    final palette-compaction step after Linial reduction.
    """
    colors = np.full(g.n, -1, dtype=np.int64)
    for v in range(g.n):
        used = set(colors[g.neighbors(v)].tolist())
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    num = int(colors.max(initial=-1)) + 1
    return ColoringResult(colors=colors, num_colors=max(num, 1), iterations=0)


def _linial_field(delta: int, palette: int) -> tuple[int, int]:
    """``(q, d)`` of one reduction step from a ``palette``-coloring: the
    smallest prime ``q > d * delta`` whose degree-``d`` polynomials
    (``q^(d+1) >= palette``) encode every color.  The new palette is ``q^2``."""
    q = next_prime(max(delta + 2, 3))
    while True:
        d = 0
        while q ** (d + 1) < palette:
            d += 1
        if q > d * delta:
            return q, d
        q = next_prime(q + 1)


def _poly_evals(colors: np.ndarray, q: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``(coeffs, evals)``: row v of ``coeffs`` (n, d+1) holds the base-q
    digits of v's color, the coefficients of ``p_v``; ``evals[v, x] =
    p_v(x)`` for every x in GF(q).  No power exceeds ``q^d < palette``."""
    powers = range(d + 1)
    coeffs = np.stack([colors.astype(np.int64) // q**j % q for j in powers], axis=1)
    vander = np.stack([np.arange(q, dtype=np.int64) ** j % q for j in powers], axis=1)
    return coeffs, coeffs @ vander.T % q


#: Evaluation points processed per vectorised block; bounds the transient
#: (arcs x block) comparison matrix at ~32 MB for million-arc squares.
_LINIAL_BLOCK_ELEMS = 1 << 25


def _linial_step(g: Arcs, colors: np.ndarray, palette: int) -> tuple[np.ndarray, int]:
    """One Linial reduction round: palette ``K -> q^2``."""
    n = g.indptr.size - 1
    q, d = _linial_field(int(np.diff(g.indptr).max(initial=0)), palette)
    coeffs, evals = _poly_evals(colors, q, d)  # evals: (n, q)
    if d == 1:
        x_of = _first_free_points_linear(g, coeffs, q)
    else:
        x_of = _first_free_points(g, evals, q)
    return x_of * q + evals[np.arange(n), x_of], q * q


def _mod_inverse(a: np.ndarray, q: int) -> np.ndarray:
    """Vectorised modular inverse of nonzero residues mod prime ``q``
    (Fermat: ``a^(q-2)``, square-and-multiply on int64)."""
    result = np.ones_like(a)
    base = a % q
    e = q - 2
    while e:
        if e & 1:
            result = (result * base) % q
        base = (base * base) % q
        e >>= 1
    return result


def _first_free_points_linear(g: Arcs, coeffs: np.ndarray, q: int) -> np.ndarray:
    """Degree-1 specialisation of :func:`_first_free_points`.

    ``p_v - p_u`` is linear, so each arc clashes on at most the single root
    ``x = (a0_u - a0_v) / (a1_v - a1_u) mod q`` -- scatter those roots into
    an (n, q) table and take each row's first free column.  O(arcs log q)
    for the batched inverses instead of O(arcs * q) comparisons.
    """
    arc_src = np.repeat(np.arange(g.indptr.size - 1, dtype=np.int64), np.diff(g.indptr))
    arc_dst = g.indices
    da1 = (coeffs[arc_src, 1] - coeffs[arc_dst, 1]) % q
    clash = np.zeros((g.indptr.size - 1, q), dtype=bool)
    rooted = da1 != 0  # equal slopes never collide (intercepts differ)
    if rooted.any():
        da0 = (coeffs[arc_dst, 0] - coeffs[arc_src, 0]) % q
        roots = (da0[rooted] * _mod_inverse(da1[rooted], q)) % q
        clash[arc_src[rooted], roots] = True
    return np.argmax(~clash, axis=1).astype(np.int64)


def _first_free_points(g: Arcs, evals: np.ndarray, q: int) -> np.ndarray:
    """int64[n]: smallest x with ``p_v(x) != p_u(x)`` for all neighbours u.

    Vectorised over blocks of evaluation points: each block compares the
    (arc, x) evaluation slices and OR-reduces clashes per node segment.
    Nodes resolve at their first clash-free x (ascending scan, so output is
    identical to a per-node scan); later blocks only reprocess the arcs
    of still-unresolved nodes -- with ``q > d * Delta`` most nodes resolve
    in the first block, so total work stays near one pass over the arcs.
    Isolated nodes resolve at ``x = 0``.
    """
    n = g.indptr.size - 1
    x_of = np.zeros(n, dtype=np.int64)
    unresolved = np.diff(g.indptr) > 0  # isolated nodes take x = 0 immediately
    arc_src = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr))
    arc_dst = g.indices
    # Evaluations live in [0, q); comparing narrow integers quarters the
    # memory traffic of the (arcs x block) equality grid.
    if evals.dtype.itemsize > 4:
        evals = evals.astype(np.int32 if q > np.iinfo(np.int16).max else np.int16)
    block = max(1, min(q, _LINIAL_BLOCK_ELEMS // max(arc_src.size, 1)))
    for x0 in range(0, q, block):
        if not unresolved.any():
            break
        if x0 > 0:
            keep = unresolved[arc_src]
            arc_src, arc_dst = arc_src[keep], arc_dst[keep]
        if arc_src.size == 0:
            # Unresolved nodes with no remaining arcs cannot exist (isolated
            # nodes were settled upfront), but guard the reduceat anyway.
            break
        hi = min(x0 + block, q)
        # eq[k] = True iff arc k's endpoints agree on evaluation point x.
        eq = evals[arc_dst, x0:hi] == evals[arc_src, x0:hi]  # (arcs, blk)
        # arc_src is non-decreasing (CSR order survives filtering), so each
        # node's arcs form one contiguous segment: OR-reduce per segment.
        starts = np.nonzero(np.concatenate([[True], arc_src[1:] != arc_src[:-1]]))[0]
        seg_nodes = arc_src[starts]
        free = ~np.logical_or.reduceat(eq, starts, axis=0)  # (#segments, blk)
        row_free = free.any(axis=1)
        hit = seg_nodes[row_free]
        x_of[hit] = x0 + np.argmax(free[row_free], axis=1)
        unresolved[hit] = False
    if unresolved.any():  # unreachable by the q > d * Delta root bound
        raise AssertionError("Linial step found no free evaluation point")
    return x_of


def linial_coloring(g: Arcs, *, compact: bool = True) -> ColoringResult:
    """Linial's deterministic coloring of ``g``.

    Starts from the trivial n-coloring (ids) and applies reduction rounds
    until the palette stops shrinking (``O(log* n)`` rounds), reaching
    ``O(Delta^2 log^2 Delta)`` colors.  The new palette ``q^2`` depends only
    on ``(Delta, palette)``, so a round that would not shrink it is never
    evaluated; its check still counts in ``iterations``, which the round
    ledger bills.  With ``compact=True`` the palette is finally renumbered
    to consecutive ints (a local bookkeeping step, free in the models).
    """
    n = g.indptr.size - 1
    if g.indices.size == 0:
        return ColoringResult(np.zeros(n, dtype=np.int64), 1, 0)
    colors = np.arange(n, dtype=np.int64)
    palette, delta, iterations = max(n, 1), int(np.diff(g.indptr).max()), 1
    # Each evaluated round strictly shrinks the palette, so this terminates.
    while _linial_field(delta, palette)[0] ** 2 < palette:
        colors, palette = _linial_step(g, colors, palette)
        iterations += 1
    if compact:
        uniq, inv = np.unique(colors, return_inverse=True)
        colors = inv.astype(np.int64)
        palette = int(uniq.size)
    if np.any(np.repeat(colors, np.diff(g.indptr)) == colors[g.indices]):
        raise AssertionError("Linial coloring produced a monochromatic edge")
    return ColoringResult(colors=colors, num_colors=palette, iterations=iterations)


def distance2_coloring(g: Graph, *, square: sp.csr_matrix | None = None) -> ColoringResult:
    """``O(Delta^4)``-ish coloring of ``G^2`` -- the Section-5 renaming step.

    Any two nodes of ``g`` within distance 2 receive distinct colors, so a
    hash of the color is a hash of the node as far as Luby's (2-hop-local)
    analysis is concerned.  Colors ``hop_pattern(g)``, or ``square`` when
    the caller already built that pattern.
    """
    return linial_coloring(hop_pattern(g) if square is None else square)
