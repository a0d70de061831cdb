"""Derandomization toolkit: seed selection + concentration estimators.

Every seed search runs in-process on the batched engine of
:mod:`~repro.derand.strategies`: seed blocks ramp up to one constant,
``DEFAULT_SEED_CHUNK``, with early exit, and the block size never changes
the selected seed.
"""

from .estimators import (
    bellare_rompel_bound,
    certified_slacks,
    chebyshev_bound,
    paper_nominal_slack,
    slack_for_failure,
    slack_for_failure_array,
)
from .strategies import (
    BatchObjective,
    ConditionalExpectationError,
    SeedSelection,
    Strategy,
    batched_from_scalar,
    select_seed,
    select_seed_batch,
)

__all__ = [
    "BatchObjective",
    "ConditionalExpectationError",
    "SeedSelection",
    "Strategy",
    "batched_from_scalar",
    "bellare_rompel_bound",
    "certified_slacks",
    "chebyshev_bound",
    "paper_nominal_slack",
    "select_seed",
    "select_seed_batch",
    "slack_for_failure",
    "slack_for_failure_array",
]
