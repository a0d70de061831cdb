"""T10 -- ablations over the design choices DESIGN.md calls out.

Three axes on a fixed workload:

* sparsification family independence: c = 4 (paper) vs c = 2 (Chebyshev)
  vs c = 6;
* degree-class granularity delta: eps/8 (paper) vs coarser eps/4;
* machine space exponent eps: 0.5 vs 0.75.

All variants must stay correct; the table reports their cost profiles
(iterations, charged rounds, total seed-scan trials).
"""

from repro.analysis import render_table
from repro.core import Params, deterministic_mis
from repro.graphs import gnp_random_graph
from repro.verify import verify_mis_nodes

from _common import emit


def total_trials(res):
    return sum(rec.selection_trials for rec in res.records) + sum(
        s.trials for rec in res.records for s in rec.stages
    )


def run():
    g = gnp_random_graph(300, 0.15, seed=110)
    rows = []

    for label, params in [
        ("default", Params()),
        ("c=2 family", Params(c=2)),
        ("c=6 family", Params(c=6)),
        ("delta=eps/4", Params(delta=0.125)),
        ("eps=0.75", Params(eps=0.75)),
    ]:
        res = deterministic_mis(g, params)
        ok = verify_mis_nodes(g, res.independent_set)
        rows.append(
            (label, g.n, ok, res.iterations, res.rounds, total_trials(res),
             len(res.fidelity_events))
        )
    return rows


def test_t10_ablations(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = render_table(
        "T10  ablations: independence / granularity / space",
        ["variant", "n", "correct", "iters", "rounds", "scan trials", "fidelity"],
        rows,
        footnote="claim: every variant stays correct; costs shift as designed",
    )
    emit("t10_ablations", table)

    for row in rows:
        assert row[2], f"{row[0]} produced an invalid MIS"
