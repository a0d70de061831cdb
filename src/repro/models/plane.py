"""Cluster tables for the engine's round core, and the key helpers steps use.

:meth:`~repro.mpc.engine.MPCEngine.round_packed` runs one array program per
round over the whole cluster, so its interpreter cost is per *table*, not
per machine or per message.  Two array types carry the data:

* :class:`Table` — *resident* rows of one tag on every machine: a ``(k, w)``
  int64 matrix plus a ``machine`` column.  Row ``i`` stands for the record
  ``(tag, data[i, 0], ..., data[i, w-1])`` held by machine ``machine[i]``,
  so it costs ``w + 1`` words (the tag costs one word).  The empty tag
  ``""`` marks *raw scalars*: single-column rows that stand for bare
  integers (the arc streams), one word each.
* :class:`MessageBlock` — *in-flight* rows of one tag: the same matrix plus
  ``src`` and ``dest`` columns.

A machine's rows of a table are the rows carrying its id, in table order;
nothing else about the layout is promised.  Steps compute on
``(machine, node)`` keys ``machine * n + node`` with the sort-based helpers
below (:func:`distinct`, :func:`member`, :func:`lookup`,
:func:`last_wins`, :func:`reduce_by_key`).  They stand in for ``np.unique`` and
``np.isin`` on purpose: on numpy 2.x both take a hash path for int64 input,
measured at 0.48 s against 0.015 s for a sort and a mask on 510k keys.

Both types are dumb containers: every model rule (send / receive / storage
ceilings, destination validation, delivery) lives in the engine.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MessageBlock",
    "Table",
    "balanced_owners",
    "distinct",
    "last_wins",
    "lookup",
    "member",
    "reduce_by_key",
    "table",
]


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"table data must be 1-D or 2-D, got shape {arr.shape}")
    return arr


def _words_per_row(tag: str, data: np.ndarray) -> int:
    if tag == "" and data.shape[1] != 1:
        raise ValueError("raw scalar rows (tag='') must be single-column")
    return data.shape[1] + (1 if tag else 0)


class Table:
    """One tag's rows across the cluster; ``machine[i]`` holds row ``i``.

    Treat a table as immutable: the engine caches its per-machine loads.
    """

    __slots__ = ("tag", "machine", "data", "words_per_row", "_loads")

    def __init__(self, tag: str, machine, data) -> None:
        self.tag = tag
        self.data = _as_matrix(data)
        self.machine = np.asarray(machine, dtype=np.int64)
        if self.machine.shape != (self.data.shape[0],):
            raise ValueError(
                f"machine has shape {self.machine.shape} but data has "
                f"{self.data.shape[0]} rows"
            )
        self.words_per_row = _words_per_row(tag, self.data)
        self._loads: np.ndarray | None = None

    @classmethod
    def empty(cls, tag: str, width: int) -> Table:
        return cls(tag, np.empty(0, np.int64), np.empty((0, width), np.int64))

    @classmethod
    def concat(cls, parts: list[Table]) -> Table:
        """The parts' rows in list order (the first part, uncopied, if alone)."""
        if len(parts) == 1:
            return parts[0]
        return cls(
            parts[0].tag,
            np.concatenate([p.machine for p in parts]),
            np.concatenate([p.data for p in parts]),
        )

    @property
    def rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def word_cost(self) -> int:
        return self.rows * self.words_per_row

    def col(self, j: int) -> np.ndarray:
        return self.data[:, j]

    def keys(self, n: int) -> np.ndarray:
        """``machine * n + data[:, 0]``: the ``(machine, node)`` key per row."""
        return self.machine * n + self.data[:, 0]

    def on(self, mid: int) -> np.ndarray:
        """Machine ``mid``'s rows, in the order it holds them."""
        return self.data[self.machine == mid]

    def take(self, index) -> Table:
        return Table(self.tag, self.machine[index], self.data[index])

    def loads(self, num_machines: int) -> np.ndarray:
        """Words each machine holds in this table."""
        if self._loads is None or self._loads.size != num_machines:
            counts = np.bincount(self.machine, minlength=num_machines)
            self._loads = counts * self.words_per_row
        return self._loads

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.tag!r}, rows={self.rows})"


class MessageBlock:
    """Rows of one tag in flight: row ``i`` travels from machine ``src[i]``
    to machine ``dest[i]`` and costs ``words_per_row`` words."""

    __slots__ = ("tag", "src", "dest", "data", "words_per_row")

    def __init__(self, tag: str, src, dest, data) -> None:
        self.tag = tag
        self.data = _as_matrix(data)
        rows = self.data.shape[:1]
        # A scalar src / dest names one machine for every row.
        self.src = np.broadcast_to(np.asarray(src, dtype=np.int64), rows)
        self.dest = np.broadcast_to(np.asarray(dest, dtype=np.int64), rows)
        self.words_per_row = _words_per_row(tag, self.data)

    @property
    def rows(self) -> int:
        return int(self.data.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MessageBlock({self.tag!r}, rows={self.rows})"


def table(tables: dict[str, Table], tag: str, width: int) -> Table:
    """``tables[tag]``, or an empty ``width``-column table when absent."""
    found = tables.get(tag)
    return found if found is not None else Table.empty(tag, width)


def balanced_owners(count: int, num_machines: int) -> np.ndarray:
    """Machine of each of ``count`` items split into contiguous blocks of
    ``ceil(count / M)`` (the model's arbitrary initial split)."""
    per = max(1, -(-count // num_machines))
    return np.arange(count, dtype=np.int64) // per


# ---------------------------------------------------------------------- #
# Sort-based key helpers
# ---------------------------------------------------------------------- #


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first row of each run of equal keys."""
    first = np.ones(sorted_keys.size, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


def distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys (``np.unique`` by a sort and a mask)."""
    s = np.sort(keys)
    return s[_run_starts(s)]


def member(keys: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Per key, whether it is in ``sorted_set`` (``np.isin`` by binary
    search; ``sorted_set`` must be sorted)."""
    if sorted_set.size == 0:
        return np.zeros(keys.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_set, keys), sorted_set.size - 1)
    return sorted_set[pos] == keys


def lookup(
    sorted_keys: np.ndarray, values: np.ndarray, queries: np.ndarray
) -> np.ndarray:
    """Each query's value in a sorted-distinct key table, 0 when absent."""
    if sorted_keys.size == 0:
        return np.zeros(queries.shape, dtype=values.dtype)
    pos = np.minimum(np.searchsorted(sorted_keys, queries), sorted_keys.size - 1)
    return np.where(sorted_keys[pos] == queries, values[pos], 0)


def last_wins(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted distinct keys, the value of each key's *last* row).

    Rows reach a machine in delivery order, so when it holds a stale row
    for a key (an earlier phase's table) followed by a fresh one, the last
    row is the current value.
    """
    order = np.argsort(keys, kind="stable")
    s = keys[order]
    last = np.ones(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=last[:-1])
    return s[last], values[order[last]]


def reduce_by_key(
    ufunc: np.ufunc, keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(sorted distinct keys, ``ufunc`` reduced over each key's values),
    e.g. ``np.minimum`` for per-key minima or ``np.add`` for sums."""
    order = np.argsort(keys, kind="stable")
    s = keys[order]
    starts = np.flatnonzero(_run_starts(s))
    return s[starts], ufunc.reduceat(values[order], starts)
