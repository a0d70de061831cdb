"""T6 -- Theorems 7/14 space claims: O(n^eps) per machine, O(m + n^{1+eps})
total.

Runs both drivers across an n-sweep and tabulates the realised per-machine
high-water mark against ``S`` and the total budget ``MPCContext`` enforces.  A violation
would have raised during the run (the context's ``observe_loads`` is
enforcing, not just observing); the table documents the margins.
"""

from repro.analysis import render_table
from repro.core import Params, deterministic_maximal_matching, deterministic_mis
from repro.graphs import gnp_random_graph
from repro.mpc import MPCContext

from _common import emit

SWEEP = [250, 500, 1000, 2000]


def run():
    params = Params()
    rows = []
    for n in SWEEP:
        g = gnp_random_graph(n, 8.0 / n, seed=66)
        mm = deterministic_maximal_matching(g, params)
        mi = deterministic_mis(g, params)
        total = MPCContext.for_graph(g, params).total_space_budget
        rows.append(
            (n, g.m, mm.space_limit, mm.max_machine_words, mi.max_machine_words,
             total)
        )
    return rows


def test_t6_space(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = render_table(
        "T6  space accounting: per-machine high-water vs S = 32 n^eps",
        ["n", "m", "S", "matching max words", "mis max words", "total budget"],
        rows,
        footnote="claim: max machine words <= S at every step (enforced)",
    )
    emit("t6_space", table)

    for row in rows:
        assert row[3] <= row[2]
        assert row[4] <= row[2]
    # S grows like n^0.5: quadrupling n doubles S (within rounding).
    assert rows[-1][2] <= 3.1 * rows[0][2]
