"""The unified request / result envelope of the ``repro.api`` facade.

One :class:`SolveRequest` describes any Theorem-1 solve — which *problem*
(MIS, matching, or a derived corollary) under which *cost model* (the
vectorized MPC accounting simulation, the literal message-passing MPC
engine, CONGESTED CLIQUE, or CONGEST), on which input, with which settings
— in process, in a batch, on the ``repro serve`` wire and in the cache
key alike.  One :class:`SolveResult`
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

import hashlib
import json
from dataclasses import dataclass, field, fields

import numpy as np

from ..core.params import Params
from ..core.records import (
    MatchingResult,
    MISResult,
    result_from_payload,
    result_to_payload,
)
from ..graphs.graph import Graph
from ..graphs.source import GraphSource, scalar_pairs
from ..models.ledger import ModelSnapshot
from .registry import REGISTRY

__all__ = ["SolveRequest", "SolveResult"]

#: Keys ``overrides`` may carry: the ``Params`` fields, less ``eps``, which
#: is a field of the request itself.
_OVERRIDE_KEYS = frozenset(f.name for f in fields(Params)) - {"eps"}


@dataclass(frozen=True)
class SolveRequest:
    """One solve: ``(problem, model)``, its input, and its settings.

    The same record goes to :func:`repro.api.solve`, to
    :meth:`repro.runtime.Scheduler.run`, over the ``repro serve`` wire
    (:meth:`to_dict` / :meth:`from_dict`) and into the result-cache key
    (:meth:`cache_key`).  The input is ``graph`` (in process) or ``source``
    (a :class:`~repro.graphs.source.GraphSource`, resolved where the solve
    runs), not both.  The settings are ``Params(eps=eps, **overrides)``
    (:meth:`make_params`); ``options`` carries model switches
    (``charge_mode`` for CLIQUE, ``mode`` for CONGEST, ``num_colors`` for
    coloring).

    Construction checks names: the ``(problem, model)`` pair must be in
    the registry, every ``overrides`` key must be a ``Params`` field other
    than ``eps``, and the request may set only what its entry reads —
    ``force`` (``"general"`` or ``"lowdeg"``) and ``paper_rule`` need the
    entry's ``force_path`` capability, and ``options`` keys must be ones
    the entry declares.  Values are checked by :meth:`make_params` where
    the solve runs, so in a batch a bad value is a structured job failure.
    """

    problem: str
    model: str = "simulated"
    graph: Graph | None = None
    source: GraphSource | None = None
    eps: float = 0.5
    overrides: tuple[tuple[str, object], ...] = ()
    force: str | None = None  # "general" | "lowdeg" (simulated mis/matching)
    paper_rule: bool = False
    options: tuple[tuple[str, object], ...] = ()
    tag: str = ""  # free-form label for reports

    def __post_init__(self) -> None:
        if (self.problem, self.model) not in REGISTRY:
            if self.problem not in REGISTRY.problems():
                what = f"unknown problem {self.problem!r}"
            elif self.model not in REGISTRY.models():
                what = f"unknown model {self.model!r}"
            else:
                what = f"no solver for ({self.problem!r}, {self.model!r})"
            raise ValueError(f"{what}; registered pairs: {REGISTRY.catalog()}")
        if self.graph is not None and self.source is not None:
            raise ValueError("a request takes a graph or a source, not both")
        object.__setattr__(self, "overrides", scalar_pairs(self.overrides))
        object.__setattr__(self, "options", scalar_pairs(self.options))
        unknown = sorted({k for k, _ in self.overrides} - _OVERRIDE_KEYS)
        if unknown:
            raise ValueError(
                f"unknown overrides keys: {unknown} (overrides take the "
                f"Params fields other than eps)"
            )
        if self.force not in (None, "general", "lowdeg"):
            raise ValueError(
                f"force must be None, 'general' or 'lowdeg', got {self.force!r}"
            )
        entry = REGISTRY.get(self.problem, self.model)
        name = f"{self.problem}/{self.model}"
        pinned = {"force": self.force, "paper_rule": self.paper_rule}
        for key, value in pinned.items():
            if value and not entry.capabilities.force_path:
                raise ValueError(
                    f"{name} does not read {key} (only entries with the "
                    f"force_path capability do)"
                )
        unknown = sorted({k for k, _ in self.options} - set(entry.options))
        if unknown:
            raise ValueError(
                f"unknown options keys: {unknown} ({name} reads "
                f"{list(entry.options)})"
            )

    def make_params(self) -> Params:
        """``Params(eps=eps, **overrides)``; raises on a bad value."""
        return Params(eps=self.eps, **dict(self.overrides))

    def option(self, key: str, default=None):
        for k, v in self.options:
            if k == key:
                return v
        return default

    def solve_digest(self) -> str:
        """sha256 of the fields that determine the answer.

        Problem, model, eps, force, paper_rule, overrides and options: not
        the input, whose identity enters the cache key as the resolved
        graph's fingerprint, and not the tag.  The result cache keys on
        ``sha256(fingerprint : digest)`` (:meth:`cache_key`) and the serve
        coalescer on the same digest paired with the source description,
        so the two agree on which requests are the same solve.
        """
        answer = {
            "problem": self.problem,
            "model": self.model,
            "eps": self.eps,
            "force": self.force,
            "paper_rule": self.paper_rule,
            "overrides": dict(self.overrides),
            "options": dict(self.options),
        }
        canonical = json.dumps(answer, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def cache_key(self, fingerprint: str) -> str:
        """Content address: graph fingerprint x solve digest."""
        return hashlib.sha256(
            f"{fingerprint}:{self.solve_digest()}".encode()
        ).hexdigest()

    def to_dict(self) -> dict:
        """JSON-safe view of every field but ``graph``."""
        return {
            "problem": self.problem,
            "model": self.model,
            "source": None if self.source is None else self.source.to_dict(),
            "eps": self.eps,
            "overrides": dict(self.overrides),
            "force": self.force,
            "paper_rule": self.paper_rule,
            "options": dict(self.options),
            "tag": self.tag,
        }

    @staticmethod
    def from_dict(d: dict) -> "SolveRequest":
        source = d.get("source")
        return SolveRequest(
            problem=d["problem"],
            model=d.get("model", "simulated"),
            source=None if source is None else GraphSource.from_dict(source),
            eps=float(d.get("eps", 0.5)),
            overrides=d.get("overrides", {}),
            force=d.get("force"),
            paper_rule=bool(d.get("paper_rule", False)),
            options=d.get("options", {}),
            tag=str(d.get("tag", "")),
        )


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
