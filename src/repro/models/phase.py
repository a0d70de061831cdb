"""Model-generic derandomized-Luby phase kernel.

One Luby phase is the same computation in every model: rank the live
vertices by a seeded hash key, put local minima into the independent set,
kill them and their neighbours.  What differs per model is only (a) how the
key is built (node ids in the clique, colors in CONGEST's compressed mode)
and (b) what the phase *costs* — which is the job of the model's
:class:`~repro.models.ledger.RoundLedger` subclass, not this module's.

:class:`LubyPhaseKernel` owns the per-residual-graph segment reducers and
evaluates whole seed blocks at once (the PR-3 batched seed-search shape),
so every model's phase loop is the same three lines: build keys, call
:meth:`masks`, apply the kill.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..graphs.kernels import segment_any_block_fn, segment_min_block_fn

__all__ = ["LubyPhaseKernel", "MAXKEY"]

#: Sentinel key larger than any real ``hash * stride + id`` key.
MAXKEY = np.uint64(2**63 - 1)


class LubyPhaseKernel:
    """Segment reducers for one residual graph, reusable across seed blocks.

    Parameters
    ----------
    g:
        The residual graph (vertex set of size ``n`` with dead vertices
        isolated, as produced by ``Graph.remove_vertices``).
    n:
        The ambient vertex count every mask is shaped against.
    """

    def __init__(self, g: Graph, n: int) -> None:
        self.n = n
        self.live = g.degrees() > 0
        self._nbr_min = segment_min_block_fn(g.indices, g.indptr, n)
        self._nbr_any = segment_any_block_fn(g.indices, g.indptr, n)

    def masks(
        self, key: np.ndarray, live: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(i_mask, kill)`` bool ``(S, n)`` blocks for a key block.

        ``key`` is ``uint64 (S, n)`` — strict-total-order keys with dead
        columns at :data:`MAXKEY`.  A vertex joins the independent set when
        it is live and strictly smaller than all its neighbours; it is
        killed when it joins or any neighbour does.
        """
        live_mask = self.live if live is None else live
        nbr_min = self._nbr_min(key, MAXKEY)
        i_mask = live_mask[None, :] & (key < nbr_min)
        covered = self._nbr_any(i_mask)
        return i_mask, i_mask | covered
