"""Outside-in layer tracer: spans recorded around calls into each layer.

The benchmark wraps the public functions listed in :data:`FUNCTIONS` and the
engine round methods in :data:`METHODS` from its own side, without touching
the program's ``repro.obs`` spans.  A function is patched in *every* loaded
``repro.*`` module that bound it by ``from ... import``, not only in the
module that defines it; otherwise calls through those bindings would go
uncounted.  Each wrapper appends one span (name, start, end, parent) to an
in-memory list; the parent is whatever wrapped call is on the stack, so
children always nest inside their parent and self time is exact.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: ``(layer, defining module, function)``; the span is ``<layer>.<function>``.
FUNCTIONS = (
    ("graphs", "repro.graphs.linegraph", "line_graph"),
    ("graphs", "repro.graphs.power", "square_graph"),
    ("graphs", "repro.graphs.power", "ball_sizes"),
    ("graphs", "repro.graphs.coloring", "linial_coloring"),
    ("graphs", "repro.graphs.coloring", "distance2_coloring"),
    ("congest", "repro.congest.model", "bfs_depth"),
    ("derand", "repro.derand.strategies", "select_seed_batch"),
    ("core", "repro.core.stage", "run_stage_seed_search"),
    ("core", "repro.core.sparsify_nodes", "sparsify_nodes"),
    ("core", "repro.core.sparsify_edges", "sparsify_edges"),
    ("core", "repro.core.luby_step", "luby_mis_step"),
    ("core", "repro.core.luby_step", "luby_matching_step"),
    ("core", "repro.core.lowdeg", "lowdeg_mis"),
    ("cclique", "repro.cclique.mis_cc", "cc_mis"),
    ("cclique", "repro.cclique.mis_cc", "cc_maximal_matching"),
)

#: ``(span prefix, defining module, class, methods)``.
METHODS = (("mpc.engine", "repro.mpc.engine", "MPCEngine", ("round", "round_packed")),)

SEED_SPAN = "derand.select_seed_batch"


class Span:
    __slots__ = ("name", "start", "end", "parent", "trials", "satisfied")

    def __init__(self, name: str, start: float, parent: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trials = 0
        self.satisfied = True

    def to_dict(self) -> dict:
        out = {"name": self.name, "start": self.start, "end": self.end, "parent": self.parent}
        if self.name == SEED_SPAN:
            out.update(trials=self.trials, satisfied=self.satisfied)
        return out


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: ``module.attribute`` of every binding ever patched (kept after uninstall).
        self.sites: list[str] = []

    # -------------------------------------------------------------- spans

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name == SEED_SPAN:
                self.spans[idx].trials = int(out.trials)
                self.spans[idx].satisfied = bool(out.satisfied)
            return out

        return wrapper

    # ------------------------------------------------------------ patches

    def install(self) -> None:
        """Wrap every listed function wherever a ``repro`` module bound it."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("repro") and m]
        for layer, modname, fname in FUNCTIONS:
            orig = getattr(importlib.import_module(modname), fname)
            wrapper = self._wrap(f"{layer}.{fname}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        for prefix, modname, clsname, methods in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            for meth in methods:
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(f"{prefix}.{meth}", orig))

        self.sites = sorted(f"{owner.__name__}.{attr}" for owner, attr, _ in self._patches)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def summarize(spans: list[Span]) -> dict:
    """Per span name: total, self time and calls; plus seed-search counts.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it because the wrappers run on one stack.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child[sp.parent] += sp.end - sp.start
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    trials = unsatisfied = 0
    for i, sp in enumerate(spans):
        dur = sp.end - sp.start
        total[sp.name] += dur
        self_s[sp.name] += dur - child[i]
        calls[sp.name] += 1
        if sp.name == SEED_SPAN:
            trials += sp.trials
            unsatisfied += not sp.satisfied
    return {
        "total_s": dict(total),
        "self_s": dict(self_s),
        "calls": dict(calls),
        "seed_trials": trials,
        "seed_unsatisfied": unsatisfied,
    }
