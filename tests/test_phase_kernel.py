"""The Luby phase kernel against the per-call-site bodies it replaced.

``tests/phase_oracle.py`` keeps the six selection bodies that each built
their own keys, tables and seed blocks.  Every solver that now runs its
selection through :mod:`repro.models.phase` must return the same result
record, field by field: solution, rounds, words, every ``IterationRecord``
field, ``edge_trace``, fidelity events and the model snapshot.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import phase_oracle as oracle
import repro.cclique.mis_cc as mis_cc
import repro.congest.mis_congest as mis_congest
import repro.core.lowdeg as lowdeg_mod
import repro.core.matching as matching_mod
import repro.core.mis as mis_mod
from repro.cclique.mis_cc import cc_maximal_matching, cc_mis
from repro.congest.mis_congest import congest_mis
from repro.core import Params, lowdeg_mis
from repro.core.api import maximal_independent_set, maximal_matching
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    star_graph,
)
from repro.hashing.families import make_product_family
from repro.models.phase import EdgePhase, NodePhase


def _union(*parts: Graph, isolated: int = 0) -> Graph:
    """Disjoint union of ``parts`` plus ``isolated`` edgeless vertices."""
    edges, offset = [], 0
    for part in parts:
        edges.append(np.stack([part.edges_u, part.edges_v], axis=1) + offset)
        offset += part.n
    return Graph.from_edges(offset + isolated, np.concatenate(edges))


@st.composite
def graphs(draw) -> Graph:
    kind = draw(
        st.sampled_from(
            ["edgeless", "isolated", "star", "complete", "cycle", "components", "gnp"]
        )
    )
    if kind == "edgeless":
        return Graph.empty(draw(st.integers(1, 8)))
    if kind == "star":
        return star_graph(draw(st.integers(2, 30)))
    if kind == "complete":
        return complete_graph(draw(st.integers(2, 14)))
    if kind == "cycle":
        return cycle_graph(draw(st.integers(3, 40)))
    gnp = st.builds(
        gnp_random_graph,
        st.integers(2, 40),
        st.floats(0.05, 0.5),
        seed=st.integers(0, 1000),
    )
    if kind == "gnp":
        return draw(gnp)
    if kind == "isolated":
        return _union(draw(gnp), isolated=draw(st.integers(1, 5)))
    pieces = st.one_of(
        gnp,
        st.integers(3, 10).map(complete_graph),
        st.integers(3, 15).map(cycle_graph),
        st.integers(2, 12).map(star_graph),
    )
    return _union(*draw(st.lists(pieces, min_size=2, max_size=3)))


def _general(solver, module, step: str, oracle_step):
    """``solver(g, force="general")`` without and with the oracle step."""

    def new(g: Graph, params: Params):
        return solver(g, params=params, force="general")

    def old(g: Graph, params: Params):
        with mock.patch.object(module, step, oracle_step):
            return new(g, params)

    return new, old


def _pair(new, old, **kw):
    return (lambda g, params: new(g, **kw)), (lambda g, params: old(g, **kw))


#: case -> (solver through the kernel, oracle), both ``(g, params) -> record``.
CASES = {
    "lowdeg_mis": (lowdeg_mis, oracle.lowdeg_mis_oracle),
    "cc_mis[ours]": _pair(cc_mis, oracle.cc_mis_oracle, charge_mode="ours"),
    "cc_mis[chps]": _pair(cc_mis, oracle.cc_mis_oracle, charge_mode="chps"),
    "cc_matching[ours]": _pair(
        cc_maximal_matching, oracle.cc_maximal_matching_oracle, charge_mode="ours"
    ),
    "cc_matching[chps]": _pair(
        cc_maximal_matching, oracle.cc_maximal_matching_oracle, charge_mode="chps"
    ),
    "congest[voting]": _pair(congest_mis, oracle.congest_mis_oracle, mode="voting"),
    "congest[color]": _pair(
        congest_mis, oracle.congest_mis_oracle, mode="color-compressed"
    ),
    "general_mis": _general(
        maximal_independent_set, mis_mod, "luby_mis_step", oracle.luby_mis_step_oracle
    ),
    "general_matching": _general(
        maximal_matching,
        matching_mod,
        "luby_matching_step",
        oracle.luby_matching_step_oracle,
    ),
}


def assert_same_record(got, want) -> None:
    assert type(got) is type(want)
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=30, deadline=None)
@given(
    g=graphs(),
    # The default targets, and targets no seed meets (every scan exhausted).
    params=st.sampled_from(
        [Params(), Params(target_safety=2000.0, max_scan_trials=20)]
    ),
)
def test_phase_kernel_matches_oracle(case, g, params):
    new, old = CASES[case]
    assert_same_record(new(g, params), old(g, params))


@settings(max_examples=40, deadline=None)
@given(g=graphs(), height=st.sampled_from([1, 4]), first=st.integers(0, 200))
def test_all_edges_phase_matches_the_explicit_subset(g, height, first):
    """Over all of ``g``'s edges the edge form reads ``g``'s own CSR rows;
    naming every edge as a subset remaps them, with the same masks."""
    family = make_product_family(max(g.m, 2), k=2)
    seeds = (first + np.arange(height, dtype=np.int64)) % family.size
    whole = EdgePhase(g, family)
    subset = EdgePhase(g, family, np.arange(g.m, dtype=np.int64))
    assert np.array_equal(whole.masks(seeds), subset.masks(seeds))


def _phases_alive_at_build(monkeypatch, module, name: str) -> list[int]:
    """Replace ``module.<name>`` with a subclass that records, as each phase
    is built, how many phases built before it are still alive."""
    refs: list[weakref.ref] = []
    alive: list[int] = []
    base = getattr(module, name)

    class Tracked(base):
        def __init__(self, *args, **kwargs) -> None:
            alive.append(sum(ref() is not None for ref in refs))
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(module, name, Tracked)
    return alive


LIFETIME_CASES = {
    "cc_mis": (mis_cc, "NodePhase", cc_mis),
    "cc_maximal_matching": (mis_cc, "EdgePhase", cc_maximal_matching),
    "congest_mis": (mis_congest, "NodePhase", congest_mis),
    "lowdeg_mis": (lowdeg_mod, "NodePhase", lambda g: lowdeg_mis(g, Params())),
}


@pytest.mark.parametrize("case", sorted(LIFETIME_CASES))
def test_each_phase_is_collected_before_the_next_is_built(case, monkeypatch):
    """A solver drops a finished phase before it builds the next one, so it
    never holds two phases' keys and tables at once.  Reference cycles are
    not left to the collector: it is off while the solver runs."""
    module, name, run = LIFETIME_CASES[case]
    alive = _phases_alive_at_build(monkeypatch, module, name)
    g = gnp_random_graph(300, 0.1, seed=4)  # two phases or more in each
    gc.disable()
    try:
        run(g)
    finally:
        gc.enable()
    assert len(alive) >= 2
    assert alive == [0] * len(alive)


def _kth_seed_wins(k: int, phase: NodePhase | EdgePhase):
    """An objective worth 1.0 at the ``k``-th seed the scan visits and 0.0
    elsewhere; the node form also computes the block's kill, as the
    solvers' objectives do."""
    seen = [0]

    def objective(masks: np.ndarray) -> np.ndarray:
        if isinstance(phase, NodePhase):
            phase.kill(masks)
        values = np.zeros(masks.shape[0])
        if 0 <= k - seen[0] < masks.shape[0]:
            values[k - seen[0]] = 1.0
        seen[0] += masks.shape[0]
        return values

    return objective


def _counted(phase, name: str) -> list[int]:
    """Count the calls of ``phase.<name>`` (rows evaluated per call)."""
    calls: list[int] = []
    method = getattr(phase, name)

    def wrapper(arg):
        calls.append(arg.shape[0])
        return method(arg)

    setattr(phase, name, wrapper)
    return calls


#: case -> (k, target, max_trials, the offset of the first seed of the
#: winner's block, the seeds per ``masks`` call).  Blocks ramp 1, 2, 4, 8,
#: ... seeds, so the scan's 6th seed (k = 5) is row 2 of the third block,
#: and a 20-trial scan ends in a block of 5 (seeds 15..19) while its best
#: seed (k = 4) is row 1 of the third block and is evaluated again.
WINNER_CASES = {
    "first one-seed block": (0, 1.0, 64, 0, [1]),
    "later multi-seed block": (5, 1.0, 64, 3, [1, 2, 4]),
    "unsatisfied, best in an earlier block": (4, 2.0, 20, 3, [1, 2, 4, 8, 5, 1]),
}


@pytest.mark.parametrize("form", ["node", "edge"])
@pytest.mark.parametrize("case", sorted(WINNER_CASES))
def test_select_reuses_the_winners_row(form, case):
    """The mask ``select`` returns, and the node form's kill, are the
    winner's own: equal to a fresh evaluation of the selected seed, and
    evaluated again only when the winner lies outside the last block."""
    k, target, max_trials, block_start, mask_calls = WINNER_CASES[case]
    recompute = target > 1.0
    g = gnp_random_graph(60, 0.1, seed=3)
    family = make_product_family(g.n, k=2)
    phase = NodePhase(g, family) if form == "node" else EdgePhase(g, family)
    start = 7
    masks = _counted(phase, "masks")
    kills = _counted(phase, "kill") if form == "node" else []
    sel, mask = phase.select(
        _kth_seed_wins(k, phase), target=target, max_trials=max_trials, start=start
    )
    assert (sel.seed, sel.satisfied) == (start + k, not recompute)
    assert masks == mask_calls
    fresh = phase.masks(np.array([sel.seed], dtype=np.int64))[0]
    assert mask.dtype == bool and np.array_equal(mask, fresh)
    # The first seed of the winner's block has another mask, so reading
    # the wrong row of the block cannot pass.
    if k != block_start:
        other = phase.masks(np.array([start + block_start], dtype=np.int64))[0]
        assert not np.array_equal(other, fresh)
    if form == "node":
        assert kills == mask_calls[: len(mask_calls) - recompute]
        kill = phase.winner_kill()
        # The objective's kill row is reused unless the winner was
        # evaluated again.
        assert kills == mask_calls
        assert np.array_equal(kill, phase.kill(fresh[None, :])[0])
