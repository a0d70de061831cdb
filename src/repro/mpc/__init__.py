"""MPC model substrate: machines, rounds, Lemma-4 primitives, accounting."""

from .context import MPCContext
from .distributed_graph import distributed_degrees, distributed_node_aggregate
from .distributed_luby import distributed_luby_mis, packed_arc_plane
from .engine import MPCEngine, word_size
from .exceptions import CapacityExceededError, MPCModelError, SpaceExceededError
from .partition import MachineGrouping, chunk_items_by_group
from .primitives import (
    broadcast_word,
    distributed_prefix_sums,
    distributed_sort_packed,
)

__all__ = [
    "CapacityExceededError",
    "MPCContext",
    "MPCEngine",
    "MPCModelError",
    "MachineGrouping",
    "SpaceExceededError",
    "broadcast_word",
    "chunk_items_by_group",
    "distributed_degrees",
    "distributed_luby_mis",
    "distributed_node_aggregate",
    "distributed_prefix_sums",
    "distributed_sort_packed",
    "packed_arc_plane",
    "word_size",
]
