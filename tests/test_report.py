"""Tests for the run-report renderer and its CLI hook."""


from repro.__main__ import main
from repro.analysis import run_report
from repro.core import deterministic_maximal_matching, deterministic_mis
from repro.core.lowdeg import lowdeg_mis
from repro.graphs import gnp_random_graph, grid_graph


def test_mis_report_contains_sections():
    g = gnp_random_graph(100, 0.1, seed=1)
    res = deterministic_mis(g)
    rpt = run_report(res)
    assert "deterministic MIS run report" in rpt
    assert "per-iteration progress" in rpt
    assert "round ledger" in rpt
    assert f"solution size: {len(res.independent_set)}" in rpt


def test_matching_report_has_stage_table_when_dense():
    g = gnp_random_graph(120, 0.25, seed=2)
    res = deterministic_maximal_matching(g)
    rpt = run_report(res, title="custom title")
    assert "# custom title" in rpt
    assert "sparsification stages" in rpt


def test_lowdeg_report_mentions_stage_compression():
    g = grid_graph(9, 9)
    res = lowdeg_mis(g)
    rpt = run_report(res)
    assert "Section-5 run" in rpt
    assert "colors" in rpt


def test_report_deterministic():
    g = gnp_random_graph(80, 0.1, seed=3)
    a = run_report(deterministic_mis(g))
    b = run_report(deterministic_mis(g))
    assert a == b


def test_report_numbers_match_records():
    g = gnp_random_graph(80, 0.1, seed=4)
    res = deterministic_mis(g)
    rpt = run_report(res)
    assert f"charged MPC rounds: {res.rounds}" in rpt
    for rec in res.records:
        assert str(rec.edges_before) in rpt


def test_cli_report_flag(tmp_path, capsys):
    out = tmp_path / "r.md"
    rc = main(["solve", "--problem", "mis", "--n", "60", "--p", "0.1",
               "--report", str(out)])
    assert rc == 0
    assert out.exists()
    text = out.read_text()
    assert text.startswith("# mis under simulated on Graph")
    assert "per-iteration progress" in text
