"""Derandomization toolkit: seed selection + concentration estimators."""

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
    resolve_seed_chunk,
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
    "resolve_seed_chunk",
    "select_seed",
    "select_seed_batch",
    "slack_for_failure",
    "slack_for_failure_array",
]
