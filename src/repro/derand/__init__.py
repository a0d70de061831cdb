"""Derandomization toolkit: seed selection.

Every seed search is the one scan of :mod:`~repro.derand.strategies`,
run in-process: seed blocks ramp up to one constant, ``DEFAULT_SEED_CHUNK``,
with early exit, and the block size never changes the selected seed.
"""

from .strategies import (
    BatchObjective,
    SeedSelection,
    select_seed_batch,
)

__all__ = [
    "BatchObjective",
    "SeedSelection",
    "select_seed_batch",
]
