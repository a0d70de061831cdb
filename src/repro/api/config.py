"""Consolidated execution configuration (every execution knob, one record).

:class:`ExecutionConfig` is the single typed record for the knobs that
change how a solve executes but never what it returns: the seed-scan
block size and worker count (``REPRO_SEED_CHUNK`` / ``REPRO_SEED_WORKERS``),
the graph store directory (``REPRO_GRAPH_STORE``), plus the CONGEST
``pipeline_seed_fix`` ablation flag:

* every field defaults to ``None`` = "inherit" (environment variable, then
  the built-in default), so an empty config is always safe;
* :meth:`ExecutionConfig.from_env` snapshots the current environment into
  explicit values (an empty variable counts as unset);
* :meth:`ExecutionConfig.from_dict` drops keys it does not know, so a
  stored config naming a retired knob still loads;
* :meth:`ExecutionConfig.apply` threads the config into a frozen
  :class:`~repro.core.params.Params`, which is how the knobs reach the
  solver call sites (``repro.api.solve`` applies the request's config this
  way).

The environment variables stay honored for processes that never touch the
facade: the resolvers at the call sites
(:func:`~repro.derand.strategies.resolve_seed_chunk`,
:func:`~repro.derand.strategies.resolve_seed_workers`) read them too, with
the same empty-means-unset rule.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from ..core.params import Params

__all__ = ["ExecutionConfig"]

#: field name -> (environment variable, parser)
_ENV_SPEC = {
    "seed_chunk": ("REPRO_SEED_CHUNK", int),
    "seed_scan_workers": ("REPRO_SEED_WORKERS", int),
    "congest_pipeline_seed_fix": (
        "REPRO_CONGEST_PIPELINE_SEED_FIX",
        lambda s: s.strip().lower() in ("1", "true", "yes", "on"),
    ),
    "graph_store": ("REPRO_GRAPH_STORE", str),
}


@dataclass(frozen=True)
class ExecutionConfig:
    """All execution knobs; ``None`` fields inherit env/defaults."""

    seed_chunk: int | None = None  # seeds per objective block
    seed_scan_workers: int | None = None  # > 1 enables the parallel stage scan
    congest_pipeline_seed_fix: bool | None = None  # O(D + seed_bits) ablation
    #: Directory of the out-of-core graph store (``REPRO_GRAPH_STORE``).
    #: When set, the batch scheduler publishes store keys to workers instead
    #: of pickled npz buffers; workers mmap CSR shards directly.  This is a
    #: dispatch knob, not a solver knob — it never reaches ``Params``.
    graph_store: str | None = None

    def __post_init__(self) -> None:
        if self.seed_chunk is not None and self.seed_chunk < 1:
            raise ValueError("seed_chunk must be >= 1")
        if self.seed_scan_workers is not None and self.seed_scan_workers < 0:
            raise ValueError("seed_scan_workers must be >= 0")

    # ------------------------------------------------------------------ #
    # Environment fallback
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_env() -> "ExecutionConfig":
        """Snapshot the ``REPRO_*`` environment into explicit values."""
        values = {}
        for name, (var, parse) in _ENV_SPEC.items():
            raw = os.environ.get(var)
            if raw is not None and raw != "":
                values[name] = parse(raw)
        return ExecutionConfig(**values)

    def resolved(self) -> "ExecutionConfig":
        """Fill every ``None`` field from the environment (explicit wins)."""
        env = ExecutionConfig.from_env()
        values = {
            f.name: (
                getattr(self, f.name)
                if getattr(self, f.name) is not None
                else getattr(env, f.name)
            )
            for f in fields(self)
        }
        return ExecutionConfig(**values)

    # ------------------------------------------------------------------ #
    # Params threading
    # ------------------------------------------------------------------ #

    def apply(self, params: Params) -> Params:
        """Thread the non-``None`` knobs into a :class:`Params` copy."""
        updates: dict = {}
        if self.seed_chunk is not None:
            updates["seed_chunk"] = self.seed_chunk
        if self.seed_scan_workers is not None:
            updates["seed_scan_workers"] = self.seed_scan_workers
        if self.congest_pipeline_seed_fix is not None:
            updates["congest_pipeline_seed_fix"] = self.congest_pipeline_seed_fix
        return params.with_(**updates) if updates else params

    @staticmethod
    def from_params(params: Params) -> "ExecutionConfig":
        """Extract the execution knobs a :class:`Params` carries."""
        return ExecutionConfig(
            seed_chunk=params.seed_chunk,
            seed_scan_workers=params.seed_scan_workers or None,
            congest_pipeline_seed_fix=params.congest_pipeline_seed_fix or None,
        )

    # ------------------------------------------------------------------ #
    # JSON round trip
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) is not None
        }

    @staticmethod
    def from_dict(d: dict) -> "ExecutionConfig":
        known = {f.name for f in fields(ExecutionConfig)}
        return ExecutionConfig(**{k: v for k, v in d.items() if k in known})

    def with_(self, **kwargs) -> "ExecutionConfig":
        return replace(self, **kwargs)
