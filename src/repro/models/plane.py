"""Struct-of-arrays message planes for the engine's round core.

:meth:`~repro.mpc.engine.MPCEngine.round_packed` moves batches, not one
Python object per message, so a round that delivers ``k`` partials costs
``O(M)`` interpreter work instead of ``O(k)``.  Two array types carry the
batches:

* :class:`Plane` — a *resident* batch: a tagged ``(k, w)`` int64 matrix
  living in a machine's storage.  Row ``i`` stands for the record
  ``(tag, data[i, 0], ..., data[i, w-1])``, so its space charge is
  ``k * (w + 1)`` words (the tag costs one word per row).
* :class:`MessageBlock` — an *in-flight* batch: the same matrix plus a
  ``dest`` column.  The engine routes a block with one stable argsort of
  ``dest`` and a ``searchsorted`` split instead of a per-message dispatch
  loop, so routing cost is ``O(k log k)`` vectorised work plus ``O(M)``
  Python — independent of the message count at the interpreter level.

Both shapes are deliberately dumb containers: every model-semantic check
(per-round send/receive capacity, storage ceilings, destination validation)
stays in the engine.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MessageBlock",
    "Plane",
    "concat_planes",
    "route_block",
]


def _as_matrix(data: np.ndarray) -> np.ndarray:
    arr = np.asarray(data, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"plane data must be 1-D or 2-D, got shape {arr.shape}")
    return arr


class Plane:
    """A tagged ``(rows, width)`` int64 batch resident in machine storage.

    ``word_cost``: each row is the record ``(tag, *row)`` and therefore
    costs ``width + 1`` words.
    """

    __slots__ = ("tag", "data")

    def __init__(self, tag: str, data: np.ndarray) -> None:
        self.tag = tag
        self.data = _as_matrix(data)

    @property
    def rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def width(self) -> int:
        return int(self.data.shape[1])

    @property
    def word_cost(self) -> int:
        return self.rows * (self.width + 1)

    def col(self, j: int) -> np.ndarray:
        return self.data[:, j]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Plane({self.tag!r}, rows={self.rows}, width={self.width})"


class MessageBlock:
    """A batch of same-tag messages: row ``i`` travels to ``dest[i]``.

    The empty tag ``""`` marks *raw scalar* payloads: single-column rows
    that stand for bare integers (the arc streams of the sort/partition
    primitives), cost one word each (no tag word), and are delivered as
    plain 1-D arrays rather than tagged planes.
    """

    __slots__ = ("tag", "dest", "data")

    def __init__(self, tag: str, dest: np.ndarray, data: np.ndarray) -> None:
        self.tag = tag
        self.dest = np.asarray(dest, dtype=np.int64)
        self.data = _as_matrix(data)
        if self.dest.ndim != 1 or self.dest.shape[0] != self.data.shape[0]:
            raise ValueError(
                f"dest has shape {self.dest.shape} but data has "
                f"{self.data.shape[0]} rows"
            )
        if tag == "" and self.data.shape[1] != 1:
            raise ValueError("raw scalar blocks (tag='') must be single-column")

    @property
    def rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def width(self) -> int:
        return int(self.data.shape[1])

    @property
    def words_per_row(self) -> int:
        return self.width + (1 if self.tag else 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MessageBlock({self.tag!r}, rows={self.rows}, width={self.width})"


def route_block(
    block: MessageBlock, num_machines: int
) -> list[tuple[int, Plane]]:
    """Split a block into per-destination planes with one argsort.

    Returns ``(machine, plane)`` pairs for every machine that receives at
    least one row.  Raises ``ValueError`` on any out-of-range destination,
    as :meth:`~repro.mpc.engine.MPCEngine.round` does per message.
    """
    dest = block.dest
    if dest.size == 0:
        return []
    lo, hi = int(dest.min()), int(dest.max())
    if lo < 0 or hi >= num_machines:
        bad = lo if lo < 0 else hi
        raise ValueError(f"message to nonexistent machine {bad}")
    order = np.argsort(dest, kind="stable")
    sorted_dest = dest[order]
    receivers = np.unique(sorted_dest)
    bounds = np.searchsorted(sorted_dest, receivers, side="left")
    ends = np.searchsorted(sorted_dest, receivers, side="right")
    out: list[tuple[int, Plane]] = []
    for mid, start, stop in zip(receivers.tolist(), bounds.tolist(), ends.tolist()):
        out.append((mid, Plane(block.tag, block.data[order[start:stop]])))
    return out


def concat_planes(items: list, tag: str, width: int) -> np.ndarray:
    """All rows of the ``tag`` planes in ``items``, machine-delivery order.

    Returns an ``(k, width)`` matrix (empty when no plane matches); callers
    reduce over it with order-free operations (min / unique / any), so the
    concatenation order never leaks into results.
    """
    parts = [it.data for it in items if isinstance(it, Plane) and it.tag == tag]
    if not parts:
        return np.empty((0, width), dtype=np.int64)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts, axis=0)
