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
yielding the ``O(Delta^4)``-ish distance-2 palette the paper needs.  Whether
a reduction step runs depends only on ``(Delta, n)``, so
``distance2_coloring`` first reads ``G^2``'s row counts
(``ball_sizes(g, 2)``).  When ``q^2 >= n`` no step can shrink the palette:
the colors stay the ids, pairwise distinct, and no pattern is built.
Otherwise ``G^2``'s unsorted two-hop pattern is built once; a step only reads
each node's arcs (``indptr`` / ``indices``, in any order within a row).  A
step never holds an (n x q) table of evaluations: it evaluates ``p_v`` by
Horner's rule at one block of points at a time (``_NODE_POINTS`` nodes x
points) and compares arcs row slice by row slice (``_ARC_POINTS`` arcs x
points), so beyond the pattern it needs ``O(n d)`` words plus those blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..hashing.primes import next_prime
from .graph import Graph
from .power import ball_sizes, budget_slices, hop_pattern

__all__ = [
    "ColoringResult",
    "distance2_coloring",
    "linial_coloring",
    "validate_coloring",
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


def _horner(coeffs: np.ndarray, x, q: int) -> np.ndarray:
    """``p(x) mod q`` by Horner's rule from coefficient rows ``coeffs[j]``
    (lowest degree first); ``x`` broadcasts against ``coeffs[0]``."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
        acc %= q
    return acc


#: Nodes x evaluation points in one block's table of ``p_v(x)``: a block of
#: points is at most ``_NODE_POINTS // n`` wide (and at least one point).
_NODE_POINTS = 1 << 22
#: Arcs x points compared at once: a row slice holds at most
#: ``_ARC_POINTS // points`` arcs (or one row).  Also bounds the slices of
#: the final properness check.
_ARC_POINTS = 1 << 22


def _linial_step(g: Arcs, colors: np.ndarray, palette: int) -> tuple[np.ndarray, int]:
    """One Linial reduction round: palette ``K -> q^2``."""
    q, d = _linial_field(int(np.diff(g.indptr).max(initial=0)), palette)
    # Row j holds the base-q digit j of every color: the degree-j
    # coefficients of the p_v.  No power exceeds q^d < palette.
    coeffs = np.stack([colors // q**j % q for j in range(d + 1)])
    x_of = _first_free_points(g, coeffs, q)
    return x_of * q + _horner(coeffs, x_of, q), q * q


def _first_free_points(g: Arcs, coeffs: np.ndarray, q: int) -> np.ndarray:
    """int64[n]: smallest x with ``p_v(x) != p_u(x)`` for all neighbours u.

    Points are scanned in blocks whose width doubles from one point up to
    ``_NODE_POINTS // n``; each block evaluates ``p_v`` at its points for
    every node (an (n x width) table, never (n x q)).  The nodes still
    unresolved compare their arcs against it row slice by row slice, OR-reduce
    the clashes per row and settle at their first clash-free point
    (ascending scan, so the output equals a per-node scan).  With
    ``q > d * Delta`` most nodes settle in the first block, so the work
    stays near one pass over the arcs.  Isolated nodes settle at ``x = 0``.
    """
    n = g.indptr.size - 1
    x_of = np.zeros(n, dtype=np.int64)
    todo = np.flatnonzero(np.diff(g.indptr))
    # Evaluations live in [0, q); comparing narrow integers quarters the
    # memory traffic of the (arcs x points) equality grid.
    narrow = np.int32 if q > np.iinfo(np.int16).max else np.int16
    x0, width = 0, 1
    while todo.size:
        if x0 >= q:  # unreachable by the q > d * Delta root bound
            raise AssertionError("Linial step found no free evaluation point")
        width = min(width, q - x0, max(1, _NODE_POINTS // n))
        points = np.arange(x0, x0 + width, dtype=np.int64)
        evals = _horner(coeffs[:, :, None], points, q).astype(narrow)
        todo = _settle_rows(g, todo, evals, x0, x_of)
        x0, width = x0 + width, 2 * width
    return x_of


def _settle_rows(
    g: Arcs, todo: np.ndarray, evals: np.ndarray, x0: int, x_of: np.ndarray
) -> np.ndarray:
    """Set ``x_of`` for the rows of ``todo`` with a clash-free point among
    ``evals``' columns (points ``x0, x0 + 1, ...``); return the others."""
    counts = g.indptr[todo + 1] - g.indptr[todo]
    left = []
    for i, j in budget_slices(counts, _ARC_POINTS // evals.shape[1]):
        rows, cnt = todo[i:j], counts[i:j]
        # Arc positions of the (non-contiguous) rows, row by row.
        ends = np.cumsum(cnt)
        arcs = np.repeat(g.indptr[rows] - (ends - cnt), cnt) + np.arange(ends[-1])
        eq = evals[g.indices[arcs]] == np.repeat(evals[rows], cnt, axis=0)
        # Every row has an arc, so the segments are non-empty.
        free = ~np.logical_or.reduceat(eq, ends - cnt, axis=0)
        hit = free.any(axis=1)
        x_of[rows[hit]] = x0 + np.argmax(free[hit], axis=1)
        left.append(rows[~hit])
    return np.concatenate(left)


def _check_proper(g: Arcs, colors: np.ndarray) -> None:
    """Raise if an arc joins two nodes of one color (row slice by row slice)."""
    counts = np.diff(g.indptr)
    for i, j in budget_slices(counts, _ARC_POINTS):
        nbrs = g.indices[g.indptr[i] : g.indptr[j]]
        if np.any(np.repeat(colors[i:j], counts[i:j]) == colors[nbrs]):
            raise AssertionError("Linial coloring produced a monochromatic edge")


def _stepless_coloring(row_sizes: np.ndarray) -> ColoringResult | None:
    """Linial's result when it needs no reduction step, else None.

    Reads only the row sizes of the colored graph.  With no arcs every node
    takes color 0.  When ``q^2 >= n`` no round can shrink the n-palette, so
    the colors stay the ids: pairwise distinct, hence proper whatever the
    arcs, after the one check that ``iterations`` counts.
    """
    n = row_sizes.size
    if not row_sizes.any():
        return ColoringResult(np.zeros(n, dtype=np.int64), 1, 0)
    if _linial_field(int(row_sizes.max()), n)[0] ** 2 >= n:
        return ColoringResult(np.arange(n, dtype=np.int64), n, 1)
    return None


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
    stepless = _stepless_coloring(np.diff(g.indptr))
    if stepless is not None:
        return stepless
    n = g.indptr.size - 1
    colors = np.arange(n, dtype=np.int64)
    palette, delta, iterations = n, int(np.diff(g.indptr).max()), 1
    # Each evaluated round strictly shrinks the palette, so this terminates.
    while _linial_field(delta, palette)[0] ** 2 < palette:
        colors, palette = _linial_step(g, colors, palette)
        iterations += 1
    if compact:
        uniq, inv = np.unique(colors, return_inverse=True)
        colors = inv.astype(np.int64)
        palette = int(uniq.size)
    _check_proper(g, colors)
    return ColoringResult(colors=colors, num_colors=palette, iterations=iterations)


def distance2_coloring(g: Graph, *, sizes: np.ndarray | None = None) -> ColoringResult:
    """``O(Delta^4)``-ish coloring of ``G^2`` -- the Section-5 renaming step.

    Any two nodes of ``g`` within distance 2 receive distinct colors, so a
    hash of the color is a hash of the node as far as Luby's (2-hop-local)
    analysis is concerned.  ``sizes`` are the r = 2 ball sizes
    (``ball_sizes(g, 2)``, counted here unless the caller already has
    them): ``G^2``'s row counts, whose maximum decides whether Linial needs
    a reduction step.  Only then is ``G^2``'s two-hop pattern built, once.
    """
    sizes = ball_sizes(g, 2) if sizes is None else sizes
    stepless = _stepless_coloring(sizes)
    if stepless is not None:
        return stepless
    return linial_coloring(hop_pattern(g, sizes=sizes))
