"""Baselines: randomized comparators and sequential oracles."""

from .greedy import greedy_matching
from .israeli_itai import israeli_itai_matching
from .luby import (
    BaselineResult,
    luby_matching_randomized,
    luby_mis_pairwise,
    luby_mis_randomized,
)

__all__ = [
    "BaselineResult",
    "greedy_matching",
    "israeli_itai_matching",
    "luby_matching_randomized",
    "luby_mis_pairwise",
    "luby_mis_randomized",
]
