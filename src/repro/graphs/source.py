"""Graph sources: where a solve's input comes from, as a hashable description.

A :class:`GraphSource` names a generator call (with its keyword arguments)
or an edge-list file.  It is frozen, hashable and JSON-round-trippable, so
it can ride in a request to a worker process or over the wire, and it is
resolved lazily: describing a graph builds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import generators as _generators
from .graph import Graph
from .io import read_edge_list

__all__ = ["GENERATOR_NAMES", "GraphSource", "scalar_pairs"]

#: Generator names a GraphSource may reference.
GENERATOR_NAMES = tuple(sorted(_generators.__all__))


def scalar_pairs(mapping) -> tuple[tuple[str, object], ...]:
    """Normalise a mapping (or pairs) to a sorted, hashable tuple of pairs
    whose values are JSON scalars."""
    items = mapping.items() if isinstance(mapping, dict) else tuple(mapping)
    out = tuple(sorted((str(k), v) for k, v in items))
    for _, v in out:
        if not isinstance(v, (int, float, str, bool)) and v is not None:
            raise TypeError(f"values must be JSON scalars, got {v!r}")
    return out


@dataclass(frozen=True)
class GraphSource:
    """Where an input graph comes from: a generator call or a file."""

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
        return GraphSource(kind="generator", name=name, args=scalar_pairs(kwargs))

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
            args=scalar_pairs(d.get("args", {})),
            path=d.get("path", ""),
        )
