"""The typed ``(problem, model)`` solver registry behind ``repro.solve``.

Theorem 1 is one statement — deterministic MIS and maximal matching in
``O(log Delta + log log n)`` MPC rounds — but the repo grew six entry
points for it, one per model/problem combination.  The registry treats
"same problem, different model" as a single parameterized surface (the way
Pai–Pemmaraju's deterministic ruling-set framework and the
sparsity-aware unification of Censor-Hillel et al. state one interface per
problem family): every solver is a :class:`SolverEntry` keyed by
``(problem, model)`` with capability metadata, and downstream layers — the
batch runtime, the service, the CLI — *enumerate the registry* instead of
hard-coding problem lists.  Registering a new entry makes it instantly
solvable in a batch (``repro batch``), over the wire (``repro serve``),
from the CLI (``repro solve``), and a row of the cross-model bill
(``repro solve --model all``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "REGISTRY",
    "SolverCapabilities",
    "SolverEntry",
    "SolverRegistry",
    "register_solver",
]


@dataclass(frozen=True)
class SolverCapabilities:
    """What a registry entry can deliver beyond the solution itself."""

    snapshot: bool = False  # returns a ModelSnapshot round/word bill
    certificate: bool = True  # result is verified against the input graph
    force_path: bool = False  # reads force ("general" | "lowdeg") and paper_rule
    trace_records: bool = False  # raw result carries per-iteration records

    def flags(self) -> str:
        """Compact display string, e.g. ``"snapshot,certificate"``."""
        names = [
            name
            for name in (
                "snapshot",
                "certificate",
                "force_path",
                "trace_records",
            )
            if getattr(self, name)
        ]
        return ",".join(names)


@dataclass(frozen=True)
class SolverEntry:
    """One ``(problem, model)`` solver plus its metadata."""

    problem: str
    model: str
    fn: Callable = field(compare=False, repr=False)  # (graph, request, params)
    capabilities: SolverCapabilities = field(default_factory=SolverCapabilities)
    description: str = ""
    legacy_entry: str = ""  # dotted name of the shimmed historical entry point
    options: tuple[str, ...] = ()  # the SolveRequest.options keys fn reads
    #: Declared symbolic cost model: sympy-parseable expressions over the
    #: shared symbol vocabulary of :mod:`repro.analysis.symbolic` (``n``, ``m``,
    #: ``delta``, ``depth``, ``gamma``, ``seed_bits``, ``machines``,
    #: ``space``).  Keys: envelope totals (``"rounds"`` /
    #: ``"words_moved"``), per-charge-category claims under ``"phases"``,
    #: paper cross-references under ``"refs"``, honest caveats under
    #: ``"notes"``.  Stored as the raw declaration dict so this module
    #: never imports sympy; :func:`repro.analysis.symbolic.parse_cost_model`
    #: validates and parses it, ``repro trace conformance`` checks measured
    #: series against it, and ``repro docs`` renders it into
    #: ``docs/THEORY.md``.  ``None`` means "no claims declared" — reported
    #: explicitly, never silently skipped.
    cost_model: dict | None = field(default=None, compare=False)

    @property
    def key(self) -> tuple[str, str]:
        return (self.problem, self.model)


class SolverRegistry:
    """Mapping ``(problem, model) -> SolverEntry`` with stable iteration."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], SolverEntry] = {}

    def register(self, entry: SolverEntry) -> SolverEntry:
        """Add (or replace) an entry.

        The problem/model axes are *open*: any non-empty identifier is a
        legal key, so a new problem or model is introduced by registering
        it — :class:`~repro.api.envelope.SolveRequest` accepts exactly the
        registered pairs, in process, in a batch and on the wire.
        """
        for axis, value in (("problem", entry.problem), ("model", entry.model)):
            if not value or not isinstance(value, str):
                raise ValueError(f"{axis} must be a non-empty string, got {value!r}")
        self._entries[entry.key] = entry
        return entry

    def get(self, problem: str, model: str) -> SolverEntry:
        try:
            return self._entries[(problem, model)]
        except KeyError:
            raise KeyError(
                f"no solver registered for problem={problem!r} model={model!r}; "
                f"known entries: {self.catalog()}"
            ) from None

    def catalog(self) -> str:
        """Every registered pair as ``problem/model``, comma-separated."""
        return ", ".join(f"{p}/{m}" for p, m in sorted(self._entries))

    def __contains__(self, key: tuple[str, str]) -> bool:
        return tuple(key) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[SolverEntry]:
        """All entries, ordered by (problem, model) for stable display."""
        return [self._entries[k] for k in sorted(self._entries)]

    def problems(self) -> list[str]:
        return sorted({p for p, _ in self._entries})

    def models(self, problem: str | None = None) -> list[str]:
        """Models available (optionally restricted to one problem)."""
        if problem is None:
            return sorted({m for _, m in self._entries})
        return sorted({m for p, m in self._entries if p == problem})


#: The process-global registry ``repro.api.solve`` dispatches through.
#: Built-in entries are registered on import of :mod:`repro.api.solvers`.
REGISTRY = SolverRegistry()


def register_solver(
    problem: str,
    model: str,
    *,
    capabilities: SolverCapabilities | None = None,
    description: str = "",
    legacy_entry: str = "",
    options: tuple[str, ...] = (),
    cost_model: dict | None = None,
    registry: SolverRegistry | None = None,
):
    """Decorator: register an adapter ``fn(graph, request, params)``.

    ``cost_model`` is the symbolic cost declaration (see
    :attr:`SolverEntry.cost_model`), e.g.::

        cost_model={
            "rounds": "log(delta) + loglog(n)",
            "words_moved": "m",
            "phases": {"stage": {"rounds": "log(delta)"}},
            "refs": ("Theorem 1",),
        }
    """

    def deco(fn):
        (registry or REGISTRY).register(
            SolverEntry(
                problem=problem,
                model=model,
                fn=fn,
                capabilities=capabilities or SolverCapabilities(),
                description=description,
                legacy_entry=legacy_entry,
                options=tuple(options),
                cost_model=cost_model,
            )
        )
        return fn

    return deco
