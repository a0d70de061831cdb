"""The unified request / result envelope of the ``repro.api`` facade.

One :class:`SolveRequest` describes any Theorem-1 solve — which *problem*
(MIS, matching, or a derived corollary) under which *cost model* (the
vectorized MPC accounting simulation, the literal message-passing MPC
engine, CONGESTED CLIQUE, or CONGEST) — and one :class:`SolveResult`
normalizes what used to be five divergent result shapes
(:class:`~repro.core.records.MISResult` /
:class:`~repro.core.records.MatchingResult`,
:class:`~repro.cclique.mis_cc.CCResult`,
:class:`~repro.congest.mis_congest.CongestMISResult`, and the engine's
``(mis, rounds, phases)`` tuple) into one typed record carrying the
solution array, the round/communication bill, the
:class:`~repro.models.ledger.ModelSnapshot`, a verification certificate,
and timing.

``SolveResult.to_payload()`` / ``from_payload()`` split the envelope into a
JSON-safe metadata dict plus numpy arrays — the exact shape the runtime's
content-addressed cache persists, so facade results round-trip through the
batch runtime byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..core.params import Params
from ..core.records import (
    MatchingResult,
    MISResult,
    result_from_payload,
    result_to_payload,
)
from ..graphs.graph import Graph
from ..models.ledger import ModelSnapshot

__all__ = ["MODELS", "PROBLEMS", "SolveRequest", "SolveResult"]

#: The *built-in* problem axis (coloring-adjacent derived problems
#: included: vertex cover, (Delta+1)-coloring, 2-ruling set).  The axis is
#: open: problems registered via :func:`repro.api.register_solver` are
#: accepted too.
PROBLEMS = ("mis", "matching", "vc", "coloring", "ruling2")

#: The *built-in* model axis: vectorized MPC accounting ("simulated"), the
#: literal message-passing engine, CONGESTED CLIQUE, and CONGEST.  Open
#: like the problem axis.
MODELS = ("simulated", "mpc-engine", "cclique", "congest")


def _option_pairs(options) -> tuple[tuple[str, object], ...]:
    """Normalise an options mapping to a sorted, hashable tuple of pairs."""
    if isinstance(options, dict):
        items = options.items()
    else:
        items = tuple(options)
    out = tuple(sorted((str(k), v) for k, v in items))
    for _, v in out:
        if not isinstance(v, (int, float, str, bool)) and v is not None:
            raise TypeError(f"option values must be JSON scalars, got {v!r}")
    return out


@dataclass(frozen=True)
class SolveRequest:
    """One solve: ``(problem, model)`` + input graph + knobs.

    ``params`` is the only settings record the solve reads; it wins over
    ``eps`` when both are given (see :meth:`make_params`).  ``options``
    carries model-specific switches (``charge_mode`` for CLIQUE, ``mode``
    for CONGEST, ``num_colors`` for coloring, ...).
    """

    problem: str
    model: str = "simulated"
    graph: Graph | None = None
    eps: float = 0.5
    params: Params | None = None
    force: str | None = None  # "general" | "lowdeg" (simulated mis/matching)
    paper_rule: bool = False
    options: tuple[tuple[str, object], ...] = ()
    tag: str = ""

    def __post_init__(self) -> None:
        # Accept the built-in axes plus anything the registry has learned
        # (late import: the registry module must not be a hard dependency
        # of the envelope types).
        from .registry import REGISTRY

        known_problems = set(PROBLEMS) | set(REGISTRY.problems())
        known_models = set(MODELS) | set(REGISTRY.models())
        if self.problem not in known_problems:
            raise ValueError(
                f"unknown problem {self.problem!r}; pick from "
                f"{tuple(sorted(known_problems))}"
            )
        if self.model not in known_models:
            raise ValueError(
                f"unknown model {self.model!r}; pick from "
                f"{tuple(sorted(known_models))}"
            )
        object.__setattr__(self, "options", _option_pairs(self.options))

    def make_params(self) -> Params:
        """The effective :class:`Params`: ``params``, else ``Params(eps=eps)``."""
        return self.params if self.params is not None else Params(eps=self.eps)

    def option(self, key: str, default=None):
        for k, v in self.options:
            if k == key:
                return v
        return default

    def with_(self, **kwargs) -> "SolveRequest":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class SolveResult:
    """The unified result envelope every registry entry returns.

    ``solution`` is the problem's natural array — node ids
    (``solution_kind="nodes"``), ``(k, 2)`` endpoint pairs (``"pairs"``), or
    a per-node color vector (``"colors"``).  ``raw`` keeps the legacy result
    object (``MISResult`` / ``MatchingResult`` / ``CCResult`` / ...) for
    callers that need the full trace; it is carried through the runtime
    payload only for the simulated MIS/matching records (the other models'
    accounting survives in ``snapshot``).
    """

    problem: str
    model: str
    solution: np.ndarray = field(compare=False)
    solution_kind: str  # "nodes" | "pairs" | "colors"
    solution_size: int
    verified: bool
    certificate: dict  # {"verifier": ..., "ok": ..., model-specific extras}
    rounds: int
    iterations: int  # outer iterations / phases
    words_moved: int
    max_machine_words: int
    space_limit: int  # 0 when the model leaves space unbounded
    path: str = ""  # "lowdeg" | "general" | model tag | ""
    snapshot: ModelSnapshot | None = None
    raw: object = field(default=None, repr=False, compare=False)
    wall_time: float = 0.0
    #: Trace subtree of this solve (flat span dicts) when tracing was on.
    trace: list | None = field(default=None, repr=False, compare=False)
    #: Counter deltas attributed to this solve when tracing was on.
    metrics: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.verified

    def summary(self) -> dict:
        """JSON-safe scalar view (no arrays) for reports and CLIs."""
        return {
            "problem": self.problem,
            "model": self.model,
            "solution_kind": self.solution_kind,
            "solution_size": self.solution_size,
            "verified": self.verified,
            "certificate": dict(self.certificate),
            "rounds": self.rounds,
            "iterations": self.iterations,
            "words_moved": self.words_moved,
            "max_machine_words": self.max_machine_words,
            "space_limit": self.space_limit,
            "path": self.path,
            "wall_time": self.wall_time,
        }

    # ------------------------------------------------------------------ #
    # Runtime JSON payload round trip
    # ------------------------------------------------------------------ #

    def to_payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Split into ``(json_safe_meta, arrays)`` for the runtime cache.

        Inverse of :meth:`from_payload`; ``json.dumps(meta)`` is guaranteed
        to succeed.
        """
        result_meta = None
        if isinstance(self.raw, (MISResult, MatchingResult)):
            result_meta, _ = result_to_payload(self.raw)
        meta = {
            "kind": "solve_result",
            **self.summary(),
            "snapshot": self.snapshot.to_dict() if self.snapshot else None,
            "result_meta": result_meta,
            "trace": self.trace,
            "metrics": dict(self.metrics),
        }
        arrays = {"solution": np.asarray(self.solution)}
        return meta, arrays

    @staticmethod
    def from_payload(meta: dict, arrays: dict[str, np.ndarray]) -> "SolveResult":
        """Rebuild an envelope stored by :meth:`to_payload`."""
        if meta.get("kind") != "solve_result":
            raise ValueError(f"not a solve_result payload: {meta.get('kind')!r}")
        solution = np.asarray(arrays["solution"])
        raw = None
        if meta.get("result_meta") is not None:
            raw = result_from_payload(meta["result_meta"], {"solution": solution})
        snapshot = (
            ModelSnapshot.from_dict(meta["snapshot"]) if meta.get("snapshot") else None
        )
        return SolveResult(
            problem=meta["problem"],
            model=meta["model"],
            solution=solution,
            solution_kind=meta["solution_kind"],
            solution_size=int(meta["solution_size"]),
            verified=bool(meta["verified"]),
            certificate=dict(meta.get("certificate", {})),
            rounds=int(meta["rounds"]),
            iterations=int(meta["iterations"]),
            words_moved=int(meta["words_moved"]),
            max_machine_words=int(meta["max_machine_words"]),
            space_limit=int(meta["space_limit"]),
            path=meta.get("path", ""),
            snapshot=snapshot,
            raw=raw,
            wall_time=float(meta.get("wall_time", 0.0)),
            trace=meta.get("trace"),  # absent in pre-obs cache entries
            metrics=dict(meta.get("metrics") or {}),
        )
