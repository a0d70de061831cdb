"""Run records: per-stage / per-iteration traces and result objects.

Everything a benchmark or test might want to inspect about a run is captured
here rather than printed: sparsification stage traces (the invariant
measurements behind Lemmas 10/11/17/18), per-iteration progress (the
Lemma 13/21 constants), seed-search effort, and the final solution plus the
model accounting (rounds by category, space high-water marks).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "IterationRecord",
    "MISResult",
    "MatchingResult",
    "StageRecord",
    "result_from_payload",
    "result_to_payload",
]


@dataclass(frozen=True)
class StageRecord:
    """One sparsification stage (Section 3.2 / 4.2)."""

    stage: int  # j in 1..i-4 (0 = the trivial E* = E0 / Q' = Q0 case)
    kind: str  # "edges" | "nodes"
    items_before: int
    items_after: int
    sample_prob: float  # realised threshold probability (floor(p q) / q)
    num_machines: int
    max_load: int
    seed: int
    # Seeds the stage's one scan evaluated: each is judged at every slack
    # of the escalation ladder at once, so escalating re-judges them and
    # scans no seed twice.
    trials: int
    slack_kappa: float  # realised slack multiplier (paper nominal: n^{0.1 delta})
    escalations: int  # slack relaxations needed before an all-good seed
    all_good: bool
    # invariant (i): max over v of measured degree / implied bound (<= 1 when
    # all_good), plus measured decay vs the paper's ideal n^{-j delta}.
    degree_bound_ratio: float
    degree_decay_measured: float
    degree_decay_ideal: float
    # invariant (ii): min over v in B of retained weight / implied lower
    # bound (>= 1 when all_good), plus measured retention vs ideal.
    retention_bound_ratio: float
    retention_decay_measured: float
    retention_decay_ideal: float


@dataclass(frozen=True)
class IterationRecord:
    """One outer Luby iteration of Algorithm 2 / Algorithm 3."""

    iteration: int
    edges_before: int
    edges_after: int
    i_star: int
    num_good_nodes: int
    weight_b: float
    stages: tuple[StageRecord, ...]
    selection_value: float  # achieved objective sum_{v in N_h} d(v)
    selection_target: float
    selection_trials: int
    selection_satisfied: bool
    seed_bits: int
    nodes_removed: int

    @property
    def removed_fraction(self) -> float:
        if self.edges_before == 0:
            return 0.0
        return (self.edges_before - self.edges_after) / self.edges_before


@dataclass(frozen=True)
class MatchingResult:
    """Result of the deterministic maximal matching algorithm (Theorem 7)."""

    pairs: np.ndarray  # (k, 2) int64 matched endpoint pairs (original ids)
    iterations: int
    rounds: int
    rounds_by_category: dict[str, int]
    max_machine_words: int
    space_limit: int
    records: tuple[IterationRecord, ...] = field(repr=False)
    fidelity_events: tuple[str, ...] = ()
    words_moved: int = 0  # communication volume in O(log n)-bit words

    @property
    def matched_nodes(self) -> np.ndarray:
        return np.unique(self.pairs.ravel()) if self.pairs.size else np.empty(
            0, dtype=np.int64
        )

    def matching_mask(self, n: int) -> np.ndarray:
        mask = np.zeros(n, dtype=bool)
        if self.pairs.size:
            mask[self.pairs.ravel()] = True
        return mask


@dataclass(frozen=True)
class MISResult:
    """Result of the deterministic MIS algorithm (Theorem 14)."""

    independent_set: np.ndarray  # int64 node ids (original ids)
    iterations: int
    rounds: int
    rounds_by_category: dict[str, int]
    max_machine_words: int
    space_limit: int
    records: tuple[IterationRecord, ...] = field(repr=False)
    fidelity_events: tuple[str, ...] = ()
    words_moved: int = 0  # communication volume in O(log n)-bit words
    stages_compressed: int = 0  # Section-5 runs: number of compressed stages
    num_colors: int = 0  # Section-5 runs: palette size of the G^2 coloring

    def mis_mask(self, n: int) -> np.ndarray:
        mask = np.zeros(n, dtype=bool)
        if self.independent_set.size:
            mask[self.independent_set] = True
        return mask


# ---------------------------------------------------------------------- #
# Serialization (runtime cache / batch persistence)
#
# A result splits into a JSON-safe metadata dict (scalars, the full trace
# records, the round ledger) and a dict of numpy arrays (the solution), so
# the runtime cache can persist it as <key>.json + <key>.npz and rebuild a
# bit-identical result object in another process.
# ---------------------------------------------------------------------- #


def _plain(value):
    """Coerce numpy scalars / containers to JSON-native python values."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _stage_to_dict(s: StageRecord) -> dict:
    return {f.name: _plain(getattr(s, f.name)) for f in fields(StageRecord)}


def _iteration_to_dict(r: IterationRecord) -> dict:
    d = {
        f.name: _plain(getattr(r, f.name))
        for f in fields(IterationRecord)
        if f.name != "stages"
    }
    d["stages"] = [_stage_to_dict(s) for s in r.stages]
    return d


def _iteration_from_dict(d: dict) -> IterationRecord:
    d = dict(d)
    d["stages"] = tuple(StageRecord(**s) for s in d["stages"])
    return IterationRecord(**d)


def result_to_payload(
    result: MISResult | MatchingResult,
) -> tuple[dict, dict[str, np.ndarray]]:
    """Split a result into ``(json_safe_meta, arrays)``.

    Inverse of :func:`result_from_payload`; ``json.dumps(meta)`` is
    guaranteed to succeed.
    """
    is_mis = isinstance(result, MISResult)
    meta = {
        "kind": "mis" if is_mis else "matching",
        "iterations": int(result.iterations),
        "rounds": int(result.rounds),
        "rounds_by_category": _plain(result.rounds_by_category),
        "max_machine_words": int(result.max_machine_words),
        "space_limit": int(result.space_limit),
        "words_moved": int(result.words_moved),
        "fidelity_events": [str(e) for e in result.fidelity_events],
        "records": [_iteration_to_dict(r) for r in result.records],
    }
    if is_mis:
        meta["stages_compressed"] = int(result.stages_compressed)
        meta["num_colors"] = int(result.num_colors)
        arrays = {"solution": np.asarray(result.independent_set, dtype=np.int64)}
    else:
        arrays = {
            "solution": np.asarray(result.pairs, dtype=np.int64).reshape(-1, 2)
        }
    return meta, arrays


def result_from_payload(
    meta: dict, arrays: dict[str, np.ndarray]
) -> MISResult | MatchingResult:
    """Rebuild a result object from :func:`result_to_payload` output."""
    kind = meta["kind"]
    common = dict(
        iterations=int(meta["iterations"]),
        rounds=int(meta["rounds"]),
        rounds_by_category={
            str(k): int(v) for k, v in meta["rounds_by_category"].items()
        },
        max_machine_words=int(meta["max_machine_words"]),
        space_limit=int(meta["space_limit"]),
        words_moved=int(meta.get("words_moved", 0)),
        records=tuple(_iteration_from_dict(r) for r in meta["records"]),
        fidelity_events=tuple(meta["fidelity_events"]),
    )
    solution = np.asarray(arrays["solution"], dtype=np.int64)
    if kind == "mis":
        return MISResult(
            independent_set=solution,
            stages_compressed=int(meta.get("stages_compressed", 0)),
            num_colors=int(meta.get("num_colors", 0)),
            **common,
        )
    if kind == "matching":
        return MatchingResult(pairs=solution.reshape(-1, 2), **common)
    raise ValueError(f"unknown result kind {kind!r}")
