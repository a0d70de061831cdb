"""The Luby phase kernel against the per-call-site bodies it replaced.

``tests/phase_oracle.py`` keeps the six selection bodies that each built
their own keys, tables and seed blocks.  Every solver that now runs its
selection through :mod:`repro.models.phase` must return the same result
record, field by field: solution, rounds, words, every ``IterationRecord``
field, ``edge_trace``, fidelity events and the model snapshot.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import phase_oracle as oracle
import repro.core.matching as matching_mod
import repro.core.mis as mis_mod
import repro.graphs.kernels as kernels
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
from repro.graphs.streaming import gnp_block_graph


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


def test_one_padded_table_per_phase():
    """The node form's minima and kill mask read one table: each Section-5
    phase builds exactly one padded table."""
    built = []
    padded = kernels._padded_table

    def counted(*args):
        table = padded(*args)
        built.append(table is not None)
        return table

    g = gnp_block_graph(500, 8 / 500, 1)
    with mock.patch.object(kernels, "_padded_table", counted):
        res = lowdeg_mis(g, Params())
    assert len(built) == res.iterations
    assert any(built)
