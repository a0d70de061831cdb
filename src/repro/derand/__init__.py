"""Derandomization toolkit: seed selection + concentration estimators.

Every seed search is the one scan of :mod:`~repro.derand.strategies`,
run in-process: seed blocks ramp up to one constant, ``DEFAULT_SEED_CHUNK``,
with early exit, and the block size never changes the selected seed.
"""

from .estimators import certified_slacks, slack_for_failure_array
from .strategies import (
    BatchObjective,
    SeedSelection,
    select_seed_batch,
)

__all__ = [
    "BatchObjective",
    "SeedSelection",
    "certified_slacks",
    "select_seed_batch",
    "slack_for_failure_array",
]
