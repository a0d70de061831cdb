"""Derandomization toolkit: seed selection + concentration estimators.

Every seed search runs in-process on the batched engine of
:mod:`~repro.derand.strategies`: seed blocks ramp up to one constant,
``DEFAULT_SEED_CHUNK``, with early exit, and the block size never changes
the selected seed.
"""

from .estimators import certified_slacks, slack_for_failure_array
from .strategies import (
    BatchObjective,
    ConditionalExpectationError,
    SeedSelection,
    Strategy,
    select_seed_batch,
)

__all__ = [
    "BatchObjective",
    "ConditionalExpectationError",
    "SeedSelection",
    "Strategy",
    "certified_slacks",
    "select_seed_batch",
    "slack_for_failure_array",
]
