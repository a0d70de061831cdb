"""Algorithm parameters (the constants of Theorems 1, 7 and 14).

The paper's knobs and how we expose them:

* ``eps`` -- machines have ``S = Theta(n^eps)`` words.  Theorems hold for any
  constant ``eps > 0``.
* ``delta = eps / 8`` -- the degree-class granularity (Sections 3.4, 4.4 set
  ``delta = eps/8`` so the 2-hop gather fits in ``O(n^{8 delta}) = O(n^eps)``
  space).  ``1/delta`` is the number of degree classes ``C_i``.
* ``c`` -- independence of the sparsification hash family ("sufficiently
  large constant c"; Lemma 9 needs even ``c >= 4``; ``c = 2`` with Chebyshev
  slack is available for ablations).
* ``max_scan_trials`` -- the budget of every seed scan, the one seed
  selector (see :mod:`repro.derand`).
* ``congest_pipeline_seed_fix`` -- the CONGEST ablation that bills the
  BFS-pipelined ``O(D + seed_bits)`` seed broadcast (charging only; the
  MIS is unchanged).
* progress-target constants: the paper proves per-iteration expected
  progress ``>= W_B / 109`` (matching, Lemma 13,
  :data:`MATCHING_STEP_FRACTION`) and ``>= 0.01 delta W_B`` (MIS, Lemma 21,
  :data:`MIS_STEP_FRACTION_PER_DELTA`) where ``W_B = sum_{v in B} d(v)``;
  a Luby step's seed scan stops at ``target_safety`` times these.
* the stage slack ladder ``kappa_0 * SLACK_ESCALATION^j``,
  ``j <= max_slack_escalations``.

``Params`` is the only settings record a solve reads.  How the simulator
batches a seed scan is not a parameter: scans ramp their seed blocks up to
:data:`repro.derand.strategies.DEFAULT_SEED_CHUNK`, and no block size
changes which seed is picked.  Every field is checked at construction,
so a bad value (an ``overrides`` entry over the wire included) is a
``ValueError`` naming the field before any graph work.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

from ..hashing.kwise import MAX_FIELD

__all__ = [
    "MATCHING_STEP_FRACTION",
    "MIS_STEP_FRACTION_PER_DELTA",
    "Params",
    "SLACK_ESCALATION",
]

#: Lemma 13: a matching Luby step removes ``>= W_B / 109`` in expectation.
MATCHING_STEP_FRACTION = 1.0 / 109.0
#: Lemma 21: an MIS Luby step removes ``>= 0.01 delta W_B`` in expectation.
MIS_STEP_FRACTION_PER_DELTA = 0.01
#: The stage slack multiplier when a scan finds no all-good seed within
#: budget (recorded as a fidelity event).  At least 1: the stage kernel
#: judges a whole ladder at once, relying on windows that only widen as
#: kappa escalates.
SLACK_ESCALATION = 1.5


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class Params:
    """Tunable constants for the deterministic MPC algorithms."""

    eps: float = 0.5
    delta: float | None = None  # defaults to eps / 8
    c: int = 4  # sparsification family independence (2 or even >= 4)
    max_scan_trials: int = 512  # seeds one scan may evaluate
    congest_pipeline_seed_fix: bool = False  # CONGEST O(D + seed_bits) ablation
    target_safety: float = 1.0  # multiplies the paper's progress constants
    space_factor: float = 32.0
    total_factor: float = 16.0
    min_q: int = 257  # hash-field floor (range granularity on tiny inputs)
    max_slack_escalations: int = 8  # rungs of the SLACK_ESCALATION ladder

    def __post_init__(self) -> None:
        if not 0 < self.eps <= 1:
            raise ValueError(f"eps must be in (0, 1], got {self.eps}")
        if self.delta is not None and not 0 < self.delta <= self.eps:
            raise ValueError("delta must be in (0, eps]")
        if not _is_int(self.c) or (self.c != 2 and (self.c < 4 or self.c % 2)):
            raise ValueError(f"c must be 2 or an even integer >= 4, got {self.c!r}")
        for name, low in (("max_scan_trials", 1), ("max_slack_escalations", 0)):
            value = getattr(self, name)
            if not _is_int(value) or value < low:
                raise ValueError(f"{name} must be an int >= {low}, got {value!r}")
        for name in ("target_safety", "space_factor", "total_factor"):
            value = getattr(self, name)
            if not _is_real(value) or not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not _is_int(self.min_q) or not 2 <= self.min_q <= MAX_FIELD:
            raise ValueError(
                f"min_q must be an int in [2, {MAX_FIELD}], got {self.min_q!r}"
            )

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    @property
    def delta_value(self) -> float:
        return self.delta if self.delta is not None else self.eps / 8.0

    @property
    def num_classes(self) -> int:
        """Number of degree classes ``1/delta`` (rounded up)."""
        return max(1, math.ceil(1.0 / self.delta_value - 1e-9))

    def n_pow(self, n: int, k: float) -> float:
        """``n^{k * delta}`` with the conventional ``n >= 2`` guard."""
        return max(n, 2) ** (k * self.delta_value)

    def sample_prob(self, n: int) -> float:
        """Per-stage subsampling rate ``n^{-delta}``."""
        return 1.0 / self.n_pow(n, 1.0)

    def chunk_size(self, n: int) -> int:
        """Items per group machine, ``ceil(n^{4 delta})`` (Secs 3.2, 4.2)."""
        return max(1, math.ceil(self.n_pow(n, 4.0)))

    def degree_cap(self, n: int) -> float:
        """Post-sparsification degree bound ``2 n^{4 delta}`` (Sec 3.3)."""
        return 2.0 * self.n_pow(n, 4.0)

    def low_degree_threshold(self, n: int) -> int:
        """Section-5 regime boundary: ``Delta <= n^{delta}``."""
        return max(1, math.floor(self.n_pow(n, 1.0)))

    def matching_target(self, w_b: float) -> float:
        """Scan target for the matching Luby step (Lemma 13)."""
        return self.target_safety * MATCHING_STEP_FRACTION * w_b

    def mis_target(self, w_b: float) -> float:
        """Scan target for the MIS Luby step (Lemma 21)."""
        return (
            self.target_safety * MIS_STEP_FRACTION_PER_DELTA * self.delta_value * w_b
        )

    def with_(self, **kwargs) -> "Params":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **kwargs)
