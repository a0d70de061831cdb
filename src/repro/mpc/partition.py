"""Distributing per-node item groups across machine groups (Sections 3.2, 4.2).

The sparsification stages allocate, for every node ``v``, the edges (or
candidate neighbours) of ``v`` across a dedicated *group* of machines with
exactly ``chunk_size`` items per machine, except at most one remainder
machine -- the paper's "type A / type B / type Q machine" layout.  The
goodness test and the invariant algebra (Lemmas 10/11/17/18) are phrased per
machine of these groups, so the grouping itself is a first-class object here.

Everything is computed vectorised: one stable sort by group id, then
rank-in-group arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MachineGrouping", "chunk_items_by_group"]


@dataclass(frozen=True)
class MachineGrouping:
    """Placement of ``num_items`` items onto ``num_machines`` machines.

    ``machine_of_item[i]`` is the (dense) machine id of item ``i``;
    ``group_of_machine[x]`` is the group (node) a machine serves;
    ``loads[x]`` is the number of items on machine ``x``;
    ``item_order`` lists the items by machine, in input order within a
    machine (the stable sort by machine id, which is also the stable sort
    by group id because machines are numbered by (group, chunk index)).
    """

    machine_of_item: np.ndarray  # int64[num_items]
    group_of_machine: np.ndarray  # int64[num_machines]
    loads: np.ndarray  # int64[num_machines]
    chunk_size: int
    item_order: np.ndarray  # int64[num_items]

    @property
    def num_machines(self) -> int:
        return int(self.loads.size)

    @property
    def num_items(self) -> int:
        return int(self.machine_of_item.size)

    def max_load(self) -> int:
        return int(self.loads.max(initial=0))

    def machines_of_group(self, group: int) -> np.ndarray:
        """Machine ids serving ``group`` (sorted)."""
        return np.nonzero(self.group_of_machine == group)[0].astype(np.int64)

    def group_runs(self) -> np.ndarray:
        """int64[groups + 1]: the machines serving the ``k``-th group (in
        group order) are ``group_runs[k]`` to ``group_runs[k + 1] - 1``."""
        gom = self.group_of_machine
        if gom.size == 0:
            return np.zeros(1, dtype=np.int64)
        starts = np.flatnonzero(gom[1:] != gom[:-1]) + 1
        return np.concatenate([[0], starts, [gom.size]])

    def per_group(self) -> "MachineGrouping":
        """One machine per group, holding the group's whole item set.

        Derived from this grouping with no second sort: group ``k``'s
        machine merges the run of machines ``group_runs()[k:k + 2]``, and
        the item order carries over.  Equal, field by field, to
        ``chunk_items_by_group`` with a chunk larger than any group.
        """
        runs = self.group_runs()
        node_of_machine = np.repeat(np.arange(runs.size - 1), np.diff(runs))
        cum_loads = np.concatenate([[0], np.cumsum(self.loads)])
        return MachineGrouping(
            machine_of_item=node_of_machine[self.machine_of_item],
            group_of_machine=self.group_of_machine[runs[:-1]],
            loads=np.diff(cum_loads[runs]),
            chunk_size=self.num_items + 1,
            item_order=self.item_order,
        )


def chunk_items_by_group(group_ids: np.ndarray, chunk_size: int) -> MachineGrouping:
    """Chunk items into machines of ``chunk_size`` items per group.

    ``group_ids[i]`` is the group (typically: the node whose adjacency list
    item ``i`` belongs to).  Within each group, items fill machines of
    exactly ``chunk_size`` items, with one remainder machine ("all but at
    most one machine" in the paper).  Machine ids are dense, ordered by
    (group, chunk index).
    """
    gids = np.asarray(group_ids, dtype=np.int64)
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    num_items = gids.size
    if num_items == 0:
        return MachineGrouping(
            machine_of_item=np.empty(0, dtype=np.int64),
            group_of_machine=np.empty(0, dtype=np.int64),
            loads=np.empty(0, dtype=np.int64),
            chunk_size=chunk_size,
            item_order=np.empty(0, dtype=np.int64),
        )
    order = np.argsort(gids, kind="stable")
    sorted_gids = gids[order]
    # boundaries of each group's run in the sorted order
    starts = np.nonzero(np.concatenate([[True], sorted_gids[1:] != sorted_gids[:-1]]))[0]
    group_sizes = np.diff(np.concatenate([starts, [num_items]]))
    unique_groups = sorted_gids[starts]
    # rank of each item within its group
    rank = np.arange(num_items, dtype=np.int64) - np.repeat(starts, group_sizes)
    chunk_in_group = rank // chunk_size
    chunks_per_group = (group_sizes + chunk_size - 1) // chunk_size
    machine_offset = np.concatenate([[0], np.cumsum(chunks_per_group)])
    machine_sorted = np.repeat(machine_offset[:-1], group_sizes) + chunk_in_group
    machine_of_item = np.empty(num_items, dtype=np.int64)
    machine_of_item[order] = machine_sorted
    num_machines = int(machine_offset[-1])
    loads = np.bincount(machine_sorted, minlength=num_machines).astype(np.int64)
    group_of_machine = np.repeat(unique_groups, chunks_per_group)
    return MachineGrouping(
        machine_of_item=machine_of_item,
        group_of_machine=group_of_machine,
        loads=loads,
        chunk_size=chunk_size,
        item_order=order,
    )
