"""Job descriptions: hashable, JSON-serializable solve specifications.

A :class:`JobSpec` says *what* to solve — which problem (MIS, matching, or a
``core.derived`` corollary), on which input (a named generator with its
arguments, or an edge-list file), with which :class:`~repro.core.params.Params`
knobs, and optionally pinning the Theorem-1 code path.  Specs are frozen and
hashable so they can key dicts, and they round-trip through JSON so suites
can be persisted and shipped to worker processes.

A :class:`JobResult` is the structured outcome of one job: solve statistics
on success, or a captured ``(type, message, traceback)`` triple on failure.
Results are JSON-round-trippable too; solution arrays live in the result
cache, not in the result record.

Cache addressing is *content* based: the cache key combines the resolved
graph's fingerprint (see :func:`repro.graphs.io.graph_fingerprint`) with a
digest of the solve-relevant spec fields, so two specs that produce the same
graph by different means share a cache entry.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace

from ..api.registry import REGISTRY
from ..graphs import generators as _generators
from ..graphs.graph import Graph
from ..graphs.io import read_edge_list
from ..core.params import Params

__all__ = [
    "GraphSource",
    "JobResult",
    "JobSpec",
    "PROBLEMS",
    "runtime_entry",
    "runtime_problem_name",
]

#: Short runtime prefix per non-default facade model.  The simulated model
#: keeps bare problem names ("mis", "matching", ...) for continuity with
#: historical specs and cache keys.
_MODEL_PREFIX = {"cclique": "cc", "congest": "congest", "mpc-engine": "engine"}
_PREFIX_MODEL = {v: k for k, v in _MODEL_PREFIX.items()}


def runtime_problem_name(problem: str, model: str) -> str:
    """The runtime job name of a registry entry (``cc_mis``, ``mis``, ...)."""
    if model == "simulated":
        return problem
    try:
        prefix = _MODEL_PREFIX[model]
    except KeyError:
        raise KeyError(f"model {model!r} has no runtime prefix") from None
    return f"{prefix}_{problem}"


def runtime_entry(name: str) -> tuple[str, str]:
    """Invert :func:`runtime_problem_name`: job name -> (problem, model).

    A name starting with a model prefix is read as that model's entry
    *only when the registry confirms it*; otherwise the whole name is a
    simulated-model problem (so a registered simulated problem that
    happens to start with ``cc_`` / ``congest_`` / ``engine_`` still
    resolves to itself).  A name valid under both readings is rejected —
    rename the simulated problem rather than shadowing a model entry.
    """
    prefix, _, rest = name.partition("_")
    if rest and prefix in _PREFIX_MODEL:
        prefixed = (rest, _PREFIX_MODEL[prefix])
        bare = (name, "simulated")
        if prefixed in REGISTRY and bare in REGISTRY:
            raise ValueError(
                f"ambiguous runtime problem {name!r}: registered both as "
                f"simulated problem {name!r} and as {prefixed}"
            )
        if prefixed in REGISTRY or bare not in REGISTRY:
            return prefixed
    return name, "simulated"


def _registry_problems() -> tuple[str, ...]:
    """Every registry entry as a runtime problem name, simulated first."""
    entries = sorted(
        REGISTRY.entries(), key=lambda e: (e.model != "simulated", e.problem, e.model)
    )
    return tuple(runtime_problem_name(e.problem, e.model) for e in entries)


#: Problems the runtime can dispatch — *generated from the solver
#: registry*, so registering a new ``(problem, model)`` entry makes it
#: batch-runnable with no change here: the Theorem-1 primitives and
#: ``core.derived`` corollaries on the accounting layer, plus the
#: cross-model runs (CONGESTED CLIQUE, CONGEST, the literal MPC engine).
PROBLEMS = _registry_problems()

#: Generator names a GraphSource may reference (resolved lazily so specs
#: stay importable without building anything).
GENERATOR_NAMES = tuple(sorted(_generators.__all__))


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(obj) -> str:
    return hashlib.sha256(_canonical_json(obj).encode()).hexdigest()


def _as_pairs(mapping) -> tuple[tuple[str, object], ...]:
    """Normalise a kwargs mapping to a sorted, hashable tuple of pairs."""
    if isinstance(mapping, dict):
        items = mapping.items()
    else:
        items = tuple(mapping)
    out = tuple(sorted((str(k), v) for k, v in items))
    for _, v in out:
        if not isinstance(v, (int, float, str, bool)) and v is not None:
            raise TypeError(f"spec argument values must be JSON scalars, got {v!r}")
    return out


@dataclass(frozen=True)
class GraphSource:
    """Where a job's input graph comes from: a generator call or a file."""

    kind: str  # "generator" | "file"
    name: str = ""  # generator function name (kind == "generator")
    args: tuple[tuple[str, object], ...] = ()  # sorted generator kwargs
    path: str = ""  # edge-list path (kind == "file")

    def __post_init__(self) -> None:
        if self.kind not in ("generator", "file"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.kind == "generator" and self.name not in GENERATOR_NAMES:
            raise ValueError(f"unknown generator {self.name!r}")
        if self.kind == "file" and not self.path:
            raise ValueError("file source needs a path")

    @staticmethod
    def generator(name: str, **kwargs) -> "GraphSource":
        return GraphSource(kind="generator", name=name, args=_as_pairs(kwargs))

    @staticmethod
    def from_file(path: str) -> "GraphSource":
        return GraphSource(kind="file", path=str(path))

    def resolve(self) -> Graph:
        """Build / load the graph this source describes."""
        if self.kind == "generator":
            fn = getattr(_generators, self.name)
            return fn(**dict(self.args))
        return read_edge_list(self.path)

    def label(self) -> str:
        if self.kind == "generator":
            inner = ",".join(f"{k}={v}" for k, v in self.args)
            return f"{self.name}({inner})"
        return self.path

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "args": {k: v for k, v in self.args},
            "path": self.path,
        }

    @staticmethod
    def from_dict(d: dict) -> "GraphSource":
        return GraphSource(
            kind=d["kind"],
            name=d.get("name", ""),
            args=_as_pairs(d.get("args", {})),
            path=d.get("path", ""),
        )


@dataclass(frozen=True)
class JobSpec:
    """One solve: problem kind + input + parameters (+ optional forced path).

    Note: parameter *values* are validated when :meth:`make_params` runs in
    the worker, not at spec construction — a spec with bad parameters is a
    legal description of a job that will fail, and the scheduler reports
    that failure structurally.
    """

    problem: str
    source: GraphSource
    eps: float = 0.5
    force: str | None = None  # "general" | "lowdeg" | None (mis/matching only)
    paper_rule: bool = False
    overrides: tuple[tuple[str, object], ...] = ()  # extra Params kwargs
    tag: str = ""  # free-form label for reports

    def __post_init__(self) -> None:
        # PROBLEMS is an import-time snapshot; entries registered later are
        # accepted by consulting the live registry through runtime_entry.
        if self.problem not in PROBLEMS and runtime_entry(self.problem) not in REGISTRY:
            raise ValueError(f"unknown problem {self.problem!r}; pick from {PROBLEMS}")
        object.__setattr__(self, "overrides", _as_pairs(self.overrides))

    # ------------------------------------------------------------------ #
    # Parameters
    # ------------------------------------------------------------------ #

    def make_params(self) -> Params:
        """Materialise Params (raises on invalid values — worker-side)."""
        return Params(eps=self.eps, **dict(self.overrides))

    def with_(self, **kwargs) -> "JobSpec":
        return replace(self, **kwargs)

    # ------------------------------------------------------------------ #
    # Digests
    # ------------------------------------------------------------------ #

    def solve_digest(self) -> str:
        """Digest of the fields that determine the *answer* (not the input).

        Excludes the graph source and tag: the input's identity enters the
        cache key through the resolved graph's content fingerprint instead.
        This is the params half of every content address in the system: the
        result cache keys on ``sha256(fingerprint : solve_digest)``
        (:meth:`cache_key`) and the serve layer's in-flight coalescer on the
        same digest paired with the source description, so the two can
        never disagree about which requests are "the same solve".  The
        bytes are fixed: existing on-disk caches keep their addresses.
        """
        return _digest(
            {
                "problem": self.problem,
                "eps": self.eps,
                "force": self.force,
                "paper_rule": self.paper_rule,
                "overrides": {k: v for k, v in self.overrides},
            }
        )

    def digest(self) -> str:
        """Digest of the full spec (including source and tag)."""
        return _digest(self.to_dict())

    def cache_key(self, fingerprint: str) -> str:
        """Content address: graph fingerprint x solve digest."""
        return hashlib.sha256(
            f"{fingerprint}:{self.solve_digest()}".encode()
        ).hexdigest()

    # ------------------------------------------------------------------ #
    # JSON round trip
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        return {
            "problem": self.problem,
            "source": self.source.to_dict(),
            "eps": self.eps,
            "force": self.force,
            "paper_rule": self.paper_rule,
            "overrides": {k: v for k, v in self.overrides},
            "tag": self.tag,
        }

    def to_json(self) -> str:
        return _canonical_json(self.to_dict())

    @staticmethod
    def from_dict(d: dict) -> "JobSpec":
        return JobSpec(
            problem=d["problem"],
            source=GraphSource.from_dict(d["source"]),
            eps=float(d.get("eps", 0.5)),
            force=d.get("force"),
            paper_rule=bool(d.get("paper_rule", False)),
            overrides=_as_pairs(d.get("overrides", {})),
            tag=d.get("tag", ""),
        )

    @staticmethod
    def from_json(s: str) -> "JobSpec":
        return JobSpec.from_dict(json.loads(s))


@dataclass(frozen=True)
class JobResult:
    """Structured outcome of one job (success, error, or timeout)."""

    spec: JobSpec
    status: str = "ok"  # "ok" | "error" | "timeout"
    attempts: int = 1
    cache_hit: bool = False
    wall_time: float = 0.0
    worker_pid: int = 0
    fingerprint: str = ""
    graph_n: int = 0
    graph_m: int = 0
    solution_size: int = -1
    iterations: int = 0
    rounds: int = 0
    max_machine_words: int = 0
    space_limit: int = 0
    verified: bool = False
    path: str = ""  # Theorem-1 path taken: "lowdeg" | "general" | ""
    error_type: str = ""
    error_message: str = ""
    error_traceback: str = field(default="", repr=False)
    #: Free-form JSON-safe annotations: cache-hit lookup accounting
    #: (``cache_hit`` / ``lookup_time``), trace span counts, ...
    meta: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        d = {
            f.name: getattr(self, f.name)
            for f in fields(JobResult)
            if f.name != "spec"
        }
        d["spec"] = self.spec.to_dict()
        return d

    def to_json(self) -> str:
        return _canonical_json(self.to_dict())

    @staticmethod
    def from_dict(d: dict) -> "JobResult":
        d = dict(d)
        d["spec"] = JobSpec.from_dict(d["spec"])
        return JobResult(**d)

    @staticmethod
    def from_json(s: str) -> "JobResult":
        return JobResult.from_dict(json.loads(s))
