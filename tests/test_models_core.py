"""Tests for the columnar round-execution core (repro.models).

Covers the cluster tables and message blocks, ``MPCEngine.round_packed``
semantics, the golden bills (rounds, words moved, space high-water) of
every engine-layer call site, the one ``RoundLedger`` all three model
simulators extend, and the hypothesis-driven ledger invariants (rounds
monotone, category charges sum to the total, space ceilings raising
exactly at the boundary).
"""

import json

import numpy as np
import pytest
import engine_oracle as oracle_engine
from engine_oracle import distributed_luby_oracle
from hypothesis import given, settings, strategies as st
from test_kernels_equivalence import distributed_luby_reference

from repro.cclique import CongestedCliqueContext
from repro.congest import CongestContext
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    star_graph,
    write_edge_list,
)
from repro.models import (
    CapacityExceededError,
    MessageBlock,
    ModelSnapshot,
    RoundLedger,
    SpaceExceededError,
    Table,
)
from repro.models.plane import table
from repro.mpc.distributed_luby import luby_peak_words
from repro.mpc import (
    MPCContext,
    MPCEngine,
    distributed_luby_mis,
    distributed_sort_packed,
    word_size,
)


# --------------------------------------------------------------------- #
# Tables and delivery
# --------------------------------------------------------------------- #


def test_plane_word_cost_matches_tuples():
    p = Table("minz", np.zeros(5, dtype=np.int64), np.arange(10).reshape(5, 2))
    # five ("minz", a, b) tuples cost 3 words each
    assert p.word_cost == 5 * 3 == sum(word_size(("minz", 1, 2)) for _ in range(5))


def test_raw_block_costs_one_word_per_row():
    blk = MessageBlock("", 0, np.zeros(4, dtype=np.int64), np.arange(4))
    assert blk.words_per_row == 1
    with pytest.raises(ValueError):
        MessageBlock("", 0, np.zeros(2, dtype=np.int64), np.arange(4).reshape(2, 2))


def test_route_block_splits_by_destination():
    """Machine 3 sends one block; every row lands on its destination."""
    dest = np.array([2, 0, 2, 1, 0], dtype=np.int64)
    data = np.arange(10).reshape(5, 2)
    eng = MPCEngine(num_machines=4, space=64)
    eng.round_packed(lambda tables: ([], [MessageBlock("t", 3, dest, data)]))
    routed = eng.tables["t"]
    assert sorted(set(routed.machine.tolist())) == [0, 1, 2]
    assert np.array_equal(routed.on(0), data[[1, 4]])
    assert np.array_equal(routed.on(1), data[[3]])
    assert np.array_equal(routed.on(2), data[[0, 2]])


def test_route_block_rejects_bad_destination():
    for bad in ([0, 5], [-1]):
        eng = MPCEngine(num_machines=3, space=64)
        blk = MessageBlock("t", 1, np.array(bad), np.zeros((len(bad), 1)))
        with pytest.raises(ValueError, match="nonexistent machine"):
            eng.round_packed(lambda tables: ([], [blk]))


def test_concat_planes_preserves_delivery_order():
    """A machine reads its rows of a tag in delivery order: kept rows
    first, then received rows in sender order."""
    eng = MPCEngine(num_machines=3, space=64)
    eng.store(Table("a", [2], [[1, 0]]))

    def step(tables):
        blk = MessageBlock("a", [0, 1], [2, 2], [[2, 1], [3, 1]])
        return [tables["a"]], [blk]

    eng.round_packed(step)
    assert np.array_equal(eng.tables["a"].on(2), np.array([[1, 0], [2, 1], [3, 1]]))
    assert table(eng.tables, "missing", 2).data.shape == (0, 2)


# --------------------------------------------------------------------- #
# round_packed semantics
# --------------------------------------------------------------------- #


def test_round_packed_keeps_self_rows_without_charging():
    eng = MPCEngine(num_machines=2, space=8)

    def step(tables):
        # machine 0: two rows to self, one row out: only the external row
        # is sent
        return [], [MessageBlock("t", 0, np.array([0, 0, 1]), np.array([[1], [2], [3]]))]

    eng.round_packed(step)
    assert eng.rounds_executed == 1
    # 2 self rows stayed on machine 0, 1 row delivered to machine 1
    assert eng.tables["t"].on(0)[:, 0].tolist() == [1, 2]
    assert eng.tables["t"].on(1)[:, 0].tolist() == [3]
    assert eng.words_moved == 2  # one external (tag + value) row


def test_round_packed_send_capacity_enforced():
    eng = MPCEngine(num_machines=2, space=5)

    def step(tables):
        # machine 0: 3 tagged rows of width 1 = 6 words > S = 5
        return [], [MessageBlock("t", 0, np.ones(3, dtype=np.int64), np.zeros((3, 1)))]

    with pytest.raises(CapacityExceededError, match="sent"):
        eng.round_packed(step)


def test_round_packed_receive_capacity_enforced():
    eng = MPCEngine(num_machines=3, space=4)

    def step(tables):
        # machines 0 and 1 each send 2 two-word rows to machine 2
        return [], [MessageBlock("t", [0, 0, 1, 1], np.full(4, 2), np.zeros((4, 1)))]

    with pytest.raises(CapacityExceededError, match="received"):
        eng.round_packed(step)


def test_round_packed_rejects_unknown_destination():
    eng = MPCEngine(num_machines=2, space=64)
    with pytest.raises(ValueError, match="nonexistent machine"):
        eng.round_packed(
            lambda tables: ([], [MessageBlock("t", 0, np.array([7]), np.zeros((1, 1)))])
        )


@given(
    machines=st.integers(1, 4),
    space=st.integers(1, 10),
    held=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9)), max_size=6),
    sends=st.lists(
        # Destinations lean on machine 0 so that receive overflows occur;
        # -1 and ids >= M are machines that do not exist.
        st.tuples(
            st.integers(0, 3),
            st.sampled_from([0, 0, 0, 0, 1, 2, 3, -1]),
            st.integers(0, 9),
        ),
        max_size=10,
    ),
)
@settings(max_examples=200, deadline=None)
def test_round_packed_matches_per_machine_oracle(machines, space, held, sends):
    """One round of random traffic against the per-machine reference:
    every machine keeps its ``t`` rows and sends ``m`` rows, listed sender
    by sender.  Both engines hold the same rows in the same order, or raise
    the same error for the same machine and word count."""
    held = [(mid, v) for mid, v in held if mid < machines]
    sends = sorted((r for r in sends if r[0] < machines), key=lambda r: r[0])
    oracle = oracle_engine.OracleEngine(num_machines=machines, space=space)
    eng = MPCEngine(num_machines=machines, space=space)
    for mid in range(machines):
        rows = [[v] for h, v in held if h == mid]
        oracle.storage[mid] = [oracle_engine.Plane("t", np.array(rows).reshape(-1, 1))]
    eng.tables = {"t": Table("t", [h for h, _ in held], [[v] for _, v in held])}

    def oracle_step(mid, items):
        mine = [(d, v) for s, d, v in sends if s == mid]
        block = oracle_engine.Block(
            "m", [d for d, _ in mine], np.array([v for _, v in mine]).reshape(-1, 1)
        )
        return items, [block]

    def step(tables):
        block = MessageBlock(
            "m", [s for s, _, _ in sends], [d for _, d, _ in sends],
            np.array([v for _, _, v in sends]).reshape(-1, 1),
        )
        return tables.values(), [block]

    try:
        oracle.round_packed(oracle_step)
    except (CapacityExceededError, SpaceExceededError, ValueError) as want:
        with pytest.raises(type(want)) as got:
            eng.round_packed(step)
        if not isinstance(want, ValueError):
            assert (got.value.machine, got.value.words) == (want.machine, want.words)
        return
    eng.round_packed(step)
    for tag in ("t", "m"):
        for mid in range(machines):
            want = oracle_engine.concat_planes(oracle.storage[mid], tag, 1)
            assert np.array_equal(table(eng.tables, tag, 1).on(mid), want)
    assert (eng.words_moved, eng.max_words_seen) == (
        oracle.words_moved,
        oracle.max_words_seen,
    )


# --------------------------------------------------------------------- #
# Engine call sites: pinned bills and central oracles
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "make,machines,space",
    [
        # make() -> (graph, (rounds, phases, words_moved, max_words_seen))
        (lambda: (gnp_random_graph(40, 0.15, seed=5), (20, 2, 1548, 341)), 4, 1024),
        (lambda: (cycle_graph(30), (20, 2, 887, 206)), 3, 512),
        (lambda: (complete_graph(12), (10, 1, 334, 137)), 3, 512),
        (lambda: (star_graph(25), (10, 1, 478, 178)), 3, 512),
        (lambda: (Graph.empty(5), (0, 0, 0, 0)), 2, 64),
    ],
)
def test_distributed_luby_columnar_matches_legacy(make, machines, space):
    """The packed round core bills exactly what the retired item-granular
    core billed for these runs, and the MIS is the central Luby run's."""
    g, bills = make()
    stats: dict = {}
    mis, rounds, phases = distributed_luby_mis(g, machines, space, stats_out=stats)
    snap = stats["snapshot"]
    assert (rounds, phases, snap.words_moved, snap.max_words_seen) == bills
    want, want_phases = distributed_luby_reference(g)
    assert np.array_equal(mis, want)
    assert phases == want_phases


def test_distributed_luby_stats_out_snapshot():
    """``stats_out`` exposes the engine's snapshot without changing the
    public return tuple; the bills are pinned."""
    g = gnp_random_graph(30, 0.2, seed=9)
    out: dict = {}
    _, rounds, _ = distributed_luby_mis(g, 4, 512, stats_out=out)
    snap = out["snapshot"]
    assert snap.model == "mpc-engine"
    assert snap.rounds == rounds == 20
    assert snap.words_moved == 1419
    assert snap.max_words_seen == 251


@given(
    n=st.integers(1, 200),
    p=st.floats(0.0, 0.3),
    seed=st.integers(0, 10_000),
    machines=st.integers(1, 12),
    slack=st.floats(0.8, 1.2),
)
@settings(max_examples=60, deadline=None)
def test_distributed_luby_matches_per_machine_oracle(n, p, seed, machines, slack):
    """The cluster-wide round core against the per-machine reference in
    ``tests/engine_oracle.py``, with S around the exact plan: the same MIS,
    rounds, phases and bill, or the same model error (type, machine and
    word count)."""
    g = gnp_random_graph(n, p, seed=seed)
    space = max(1, int(slack * luby_peak_words(g, machines)))
    try:
        mis, rounds, phases, oracle = distributed_luby_oracle(g, machines, space)
    except (SpaceExceededError, CapacityExceededError) as want:
        assert slack < 1.0  # the plan bounds every round
        with pytest.raises(type(want)) as got:
            distributed_luby_mis(g, machines, space)
        assert (got.value.machine, got.value.words) == (want.machine, want.words)
        return
    stats: dict = {}
    got_mis, got_rounds, got_phases = distributed_luby_mis(
        g, machines, space, stats_out=stats
    )
    assert np.array_equal(got_mis, mis)
    assert (got_rounds, got_phases) == (rounds, phases)
    snap = stats["snapshot"]
    assert (snap.words_moved, snap.max_words_seen) == (
        oracle.words_moved,
        oracle.max_words_seen,
    )


def test_distributed_sort_packed_matches_object_sort():
    """Sorted output plus the pinned bill: 3 rounds, 38 words, and a
    27-word high-water mark."""
    values = [5, 3, 8, 1, 9, 2, 7, 7, 0, -4, 11, 6]
    eng = MPCEngine(num_machines=4, space=64)
    eng.load_balanced_packed(np.array(values))
    assert distributed_sort_packed(eng) == 3
    packed = np.concatenate([eng.tables[""].on(mid)[:, 0] for mid in range(4)])
    assert packed.tolist() == sorted(values)
    assert eng.words_moved == 38
    assert eng.max_words_seen == 27


def test_distributed_sort_packed_rejects_unpacked_items():
    """Regression: boxed items used to be dropped silently (0 of 600 items
    left after 3 rounds)."""
    eng = MPCEngine(num_machines=8, space=256)
    eng.load_balanced(range(600))
    with pytest.raises(TypeError, match="load_balanced_packed"):
        distributed_sort_packed(eng)


def test_distributed_sort_packed_single_machine_and_capacity():
    eng = MPCEngine(num_machines=1, space=64)
    eng.load_balanced_packed(np.array([3, 1, 2], dtype=np.int64))
    assert distributed_sort_packed(eng) == 0
    assert eng.tables[""].on(0)[:, 0].tolist() == [1, 2, 3]
    big = MPCEngine(num_machines=10, space=50)
    with pytest.raises(ValueError, match="sample sort"):
        distributed_sort_packed(big)


# --------------------------------------------------------------------- #
# The one RoundLedger
# --------------------------------------------------------------------- #


def _implementations():
    return [
        MPCEngine(num_machines=3, space=32),
        MPCContext(n=20, m=30),
        CongestedCliqueContext(n=20, space_per_node=64),
        CongestContext(gnp_random_graph(20, 0.2, seed=4), space_per_node=64),
    ]


def test_all_simulators_implement_protocol():
    for impl in _implementations():
        assert isinstance(impl, RoundLedger)
        snap = impl.model_snapshot()
        assert isinstance(snap, ModelSnapshot)
        assert snap.rounds == impl.rounds
        assert ModelSnapshot.from_dict(snap.to_dict()) == snap


def test_snapshot_ceilings_reflect_model():
    eng, ctx, cc, cg = _implementations()
    assert eng.space_ceiling == eng.bandwidth_ceiling == 32
    assert ctx.space_ceiling == ctx.S
    assert cc.bandwidth_ceiling == 20  # Lenzen: n messages per node
    assert cg.bandwidth_ceiling == 2 * cg.graph.m


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["sort", "phase", "seed_fix", "route"]),
            st.integers(0, 5),
            st.integers(0, 100),
        ),
        max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_ledger_invariants_hypothesis(charges):
    """Rounds monotone; per-category charges sum to the total; words too."""
    for impl in _implementations():
        seen = [impl.rounds]
        for category, rounds, words in charges:
            impl.charge(category, rounds, words=words)
            seen.append(impl.rounds)
        assert all(b >= a for a, b in zip(seen, seen[1:]))  # monotone
        by_cat = impl.by_category
        charged = sum(rounds for _, rounds, _ in charges)
        assert sum(by_cat.values()) == charged
        assert impl.rounds - seen[0] == charged
        assert impl.words_moved >= sum(w for _, _, w in charges)


@given(st.integers(1, 200))
@settings(max_examples=25, deadline=None)
def test_space_ceiling_boundary_engine(limit):
    """Exactly at the ceiling is legal; one word past it raises."""
    eng = MPCEngine(num_machines=1, space=limit)
    eng.load_balanced([0] * limit)  # exactly S words: fine
    assert eng.max_words_seen == limit
    with pytest.raises(SpaceExceededError):
        MPCEngine(num_machines=1, space=limit).load_balanced([0] * (limit + 1))


@given(st.integers(1, 200))
@settings(max_examples=25, deadline=None)
def test_space_ceiling_boundary_clique_and_congest(limit):
    cc = CongestedCliqueContext(n=8, space_per_node=limit)
    cc.observe_load(0, limit)  # boundary: fine
    assert cc.max_words_seen == limit
    with pytest.raises(SpaceExceededError):
        cc.observe_load(0, limit + 1)

    cg = CongestContext(cycle_graph(8), space_per_node=limit)
    cg.observe_load(3, limit)
    assert cg.max_words_seen == limit
    with pytest.raises(SpaceExceededError):
        cg.observe_load(3, limit + 1)


@given(st.integers(1, 200))
@settings(max_examples=25, deadline=None)
def test_space_ceiling_boundary_mpc_context(limit):
    # S = space_factor * 2^1 = limit (never below the 4-word floor).
    ctx = MPCContext(n=2, m=0, eps=1.0, space_factor=limit / 2)
    assert ctx.S == max(4, limit)
    ctx.observe_load(0, ctx.S)
    assert ctx.max_words_seen == ctx.S
    with pytest.raises(SpaceExceededError):
        ctx.observe_load(0, ctx.S + 1)


def test_clique_unbounded_space_never_raises():
    cc = CongestedCliqueContext(n=4)  # space_per_node=None
    cc.observe_load(0, 10**9)
    assert cc.max_words_seen == 10**9


# --------------------------------------------------------------------- #
# Every model side by side: repro solve --model all and its report
# --------------------------------------------------------------------- #


def _model_all_rows(capsys, problem: str, *argv) -> dict:
    """``repro solve --model all --json -`` rows, keyed by model."""
    from repro.__main__ import main

    rc = main(["solve", "--problem", problem, "--model", "all", *argv,
               "--json", "-"])
    assert rc == 0  # every envelope verified
    return {row["model"]: row for row in json.loads(capsys.readouterr().out)}


def test_cross_model_matching_edgeless_keeps_all_rows(tmp_path, capsys):
    """Regression: the CONGEST matching early-return used to ship no
    snapshot, silently dropping the congest row from the report."""
    inp = tmp_path / "edgeless.edges"
    write_edge_list(Graph.empty(5), inp)
    rows = _model_all_rows(capsys, "matching", "--input", str(inp))
    assert list(rows) == ["cclique", "congest", "simulated"]
    assert all(row["snapshot"] is not None for row in rows.values())
    assert [rows[m]["snapshot"]["model"] for m in rows] == [
        "congested-clique", "congest", "mpc"
    ]
    assert rows["congest"]["rounds"] == 0


def test_model_all_mis_bills_every_model(capsys):
    rows = _model_all_rows(capsys, "mis", "--n", "60", "--p", "0.08", "--seed", "2")
    assert list(rows) == ["cclique", "congest", "mpc-engine", "simulated"]
    assert all(row["verified"] and row["rounds"] > 0 for row in rows.values())
    assert rows["simulated"]["solution_size"] > 0
    snaps = [ModelSnapshot.from_dict(row["snapshot"]) for row in rows.values()]
    assert [s.rounds for s in snaps] == [row["rounds"] for row in rows.values()]


def test_model_all_matching_congest_pays_the_tree(capsys):
    rows = _model_all_rows(
        capsys, "matching", "--n", "50", "--p", "0.1", "--seed", "6"
    )
    # the tree cost is the point of the comparison
    assert rows["congest"]["rounds"] > rows["cclique"]["rounds"]


def test_cross_model_report_renders():
    from repro.analysis import cross_model_report
    from repro.api import REGISTRY, SolveRequest, solve

    g = gnp_random_graph(40, 0.12, seed=3)
    results = [
        solve(SolveRequest(problem="mis", model=model, graph=g))
        for model in REGISTRY.models("mis")
    ]
    text = cross_model_report(results)
    assert text.startswith("# cross-model mis report")
    for model in ("cclique", "congest", "mpc-engine", "simulated"):
        assert model in text
    assert "round / communication bill per model" in text
    assert "verified: yes" in text
