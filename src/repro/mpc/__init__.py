"""MPC model substrate: machines, rounds, Lemma-4 primitives, accounting."""

from .context import MPCContext
from .distributed_luby import distributed_luby_mis, packed_arc_plane
from .engine import MPCEngine, word_size
from .partition import MachineGrouping, chunk_items_by_group
from .primitives import (
    broadcast_word,
    distributed_prefix_sums,
    distributed_sort_packed,
)

__all__ = [
    "MPCContext",
    "MPCEngine",
    "MachineGrouping",
    "broadcast_word",
    "chunk_items_by_group",
    "distributed_luby_mis",
    "distributed_prefix_sums",
    "distributed_sort_packed",
    "packed_arc_plane",
    "word_size",
]
