"""Tests for the ``python -m repro`` command-line interface."""

import json

import numpy as np
import pytest

from repro.__main__ import build_parser, main
from repro.api import REGISTRY, SolveRequest, solve
from repro.graphs import gnp_random_graph, write_edge_list


def _json_stdout(capsys):
    """Parse stdout as one JSON document (it must hold nothing else)."""
    return json.loads(capsys.readouterr().out)


def test_demo_mis(capsys):
    rc = main(["solve", "--problem", "mis", "--n", "60", "--p", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "solve mis under simulated on Graph" in out
    assert "verified: True" in out


def test_demo_matching(capsys):
    rc = main(["solve", "--problem", "matching", "--n", "60", "--p", "0.1"])
    assert rc == 0
    assert "|solution| =" in capsys.readouterr().out


def test_demo_vc(capsys):
    rc = main(["solve", "--problem", "vc", "--n", "50", "--p", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verified: True (is_vertex_cover)" in out
    assert "certificate: lower_bound=" in out  # the 2-approx certificate


def test_demo_coloring(capsys):
    rc = main(["solve", "--problem", "coloring", "--n", "30", "--p", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verified: True (proper_coloring)" in out
    assert "certificate: palette=" in out


def test_file_input_and_output(tmp_path, capsys):
    g = gnp_random_graph(40, 0.15, seed=5)
    inp = tmp_path / "g.edges"
    outp = tmp_path / "mis.txt"
    write_edge_list(g, inp)
    rc = main(["solve", "--problem", "mis", "--input", str(inp), "--out", str(outp)])
    assert rc == 0
    ids = [int(line) for line in outp.read_text().split()]
    from repro.verify import verify_mis_nodes

    assert verify_mis_nodes(g, np.asarray(ids))


def test_matching_output_format(tmp_path, capsys):
    g = gnp_random_graph(30, 0.2, seed=6)
    inp = tmp_path / "g.edges"
    outp = tmp_path / "mm.txt"
    write_edge_list(g, inp)
    rc = main(["solve", "--problem", "matching", "--input", str(inp),
               "--out", str(outp)])
    assert rc == 0
    pairs = [tuple(map(int, line.split())) for line in outp.read_text().splitlines()]
    from repro.verify import verify_matching_pairs

    assert verify_matching_pairs(g, np.asarray(pairs).reshape(-1, 2))


def test_force_flag(capsys):
    rc = main(["solve", "--problem", "mis", "--n", "40", "--p", "0.1",
               "--force", "general"])
    assert rc == 0
    assert "path: general" in capsys.readouterr().out


def test_eps_flag(capsys):
    rc = main(["solve", "--problem", "mis", "--n", "40", "--p", "0.1",
               "--eps", "0.8"])
    assert rc == 0


def test_solve_model_all_command(tmp_path, capsys):
    out = tmp_path / "xm.md"
    js = tmp_path / "xm.json"
    rc = main(["solve", "--problem", "mis", "--model", "all", "--n", "80",
               "--p", "0.06", "--seed", "2", "--report", str(out),
               "--json", str(js)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "round / communication bill per model" in text
    assert "cclique" in text
    assert out.read_text().startswith("# cross-model mis on Graph")
    rows = json.loads(js.read_text())
    assert all(row["verified"] for row in rows)
    assert [row["model"] for row in rows] == REGISTRY.models("mis")
    assert {row["snapshot"]["model"] for row in rows} == {
        "mpc", "mpc-engine", "congested-clique", "congest"
    }


def test_solve_model_all_matching_from_file(tmp_path, capsys):
    g = gnp_random_graph(40, 0.12, seed=3)
    inp = tmp_path / "g.edges"
    write_edge_list(g, inp)
    rc = main(["solve", "--problem", "matching", "--model", "all",
               "--input", str(inp)])
    assert rc == 0
    assert "cross-model matching" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# --model all: every row is the direct solve of its entry
# --------------------------------------------------------------------- #


def _spy_solves(monkeypatch):
    """Record the envelope of every solve the CLI makes."""
    import repro.__main__ as cli

    seen = []

    def spy(request):
        res = solve(request)
        seen.append((request, res))
        return res

    monkeypatch.setattr(cli, "solve", spy)
    return seen


@pytest.mark.parametrize("problem", ["mis", "matching"])
def test_model_all_rows_match_direct_solves(monkeypatch, capsys, problem):
    seen = _spy_solves(monkeypatch)
    rc = main(["solve", "--problem", problem, "--model", "all", "--n", "70",
               "--p", "0.08", "--seed", "4", "--json", "-"])
    assert rc == 0
    rows = _json_stdout(capsys)
    models = REGISTRY.models(problem)
    assert [row["model"] for row in rows] == models
    assert [res.model for _, res in seen] == models
    g = gnp_random_graph(70, 0.08, seed=4)
    for row, (_, via_cli) in zip(rows, seen):
        direct = solve(SolveRequest(problem=problem, model=row["model"], graph=g))
        for key in ("rounds", "words_moved", "solution_size"):
            assert row[key] == getattr(direct, key), (row["model"], key)
        assert via_cli.solution.tobytes() == direct.solution.tobytes()


def test_model_all_rows_share_params(monkeypatch, capsys):
    seen = _spy_solves(monkeypatch)
    rc = main(["solve", "--problem", "mis", "--model", "all", "--n", "70",
               "--p", "0.08", "--pipeline-seed-fix", "--json", "-"])
    assert rc == 0
    rows = {row["model"]: row for row in _json_stdout(capsys)}
    assert rows["congest"]["snapshot"]["detail"]["pipeline_seed_fix"] is True
    params = {request.make_params() for request, _ in seen}
    assert len(params) == 1 and params.pop().congest_pipeline_seed_fix


def test_model_all_hands_each_flag_only_to_its_readers(monkeypatch, capsys):
    seen = _spy_solves(monkeypatch)
    rc = main(["solve", "--problem", "mis", "--model", "all", "--n", "70",
               "--p", "0.08", "--force", "general", "--paper-rule",
               "--charge-mode", "chps", "--mode", "voting", "--json", "-"])
    assert rc == 0
    got = {
        request.model: (request.force, request.paper_rule, dict(request.options))
        for request, _ in seen
    }
    assert got == {
        "cclique": (None, False, {"charge_mode": "chps"}),
        "congest": (None, False, {"mode": "voting"}),
        "mpc-engine": (None, False, {}),
        "simulated": ("general", True, {}),
    }
    assert all(row["verified"] for row in _json_stdout(capsys))


# --------------------------------------------------------------------- #
# --json - prints only JSON
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("problem, model", [("vc", "simulated"), ("mis", "all")])
def test_solve_json_stdout_is_only_json(capsys, problem, model):
    rc = main(["solve", "--problem", problem, "--model", model, "--n", "60",
               "--p", "0.1", "--json", "-"])
    assert rc == 0
    doc = _json_stdout(capsys)
    rows = doc if model == "all" else [doc]
    models = REGISTRY.models(problem) if model == "all" else [model]
    assert [row["model"] for row in rows] == models
    assert all(row["problem"] == problem and row["verified"] for row in rows)


# --------------------------------------------------------------------- #
# Usage errors exit 2 with one stderr line
# --------------------------------------------------------------------- #


def _usage_error(capsys, *argv) -> str:
    rc = main(["solve", *argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["--eps", "0"],
        ["--eps", "1.5"],
        ["--model", "congest", "--pipeline-seed-fix", "--eps", "0"],
    ],
    ids=["zero", "above-one", "pipeline-seed-fix"],
)
def test_solve_bad_eps_is_usage_error(capsys, argv):
    assert "eps" in _usage_error(capsys, "--problem", "mis", *argv)


def test_solve_missing_input_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "nonexistent.edges")
    assert missing in _usage_error(capsys, "--problem", "mis", "--input", missing)


def test_solve_model_all_unknown_problem_is_usage_error(capsys):
    assert "unknown problem" in _usage_error(
        capsys, "--problem", "bogus", "--model", "all"
    )


@pytest.mark.parametrize(
    "argv, field",
    [
        (["--model", "cclique", "--force", "general"], "force"),
        (["--model", "congest", "--paper-rule"], "paper_rule"),
        (["--model", "simulated", "--charge-mode", "chps"], "charge_mode"),
    ],
)
def test_solve_flag_the_model_does_not_read_is_usage_error(capsys, argv, field):
    assert field in _usage_error(capsys, "--problem", "mis", *argv)


def test_solve_model_all_rejects_out(tmp_path, capsys):
    out = tmp_path / "sol.txt"
    _usage_error(capsys, "--problem", "mis", "--model", "all", "--out", str(out))
    assert not out.exists()


@pytest.mark.parametrize(
    "entry", [("vc", "simulated"), ("coloring", "simulated"), ("mis", "cclique")]
)
def test_solve_report_without_run_records_is_usage_error(tmp_path, capsys, entry):
    report = tmp_path / "r.md"
    problem, model = entry
    assert "--report" in _usage_error(
        capsys, "--problem", problem, "--model", model, "--report", str(report)
    )
    assert not report.exists()


def test_batch_list_suites(capsys):
    rc = main(["batch", "--list"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scaling-sweep" in out
    assert "throughput-micro" in out


def test_batch_requires_suite(capsys):
    rc = main(["batch"])
    assert rc == 2


def test_batch_runs_suite_and_caches(tmp_path, capsys, monkeypatch):
    import tempfile

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_GRAPH_STORE", raising=False)
    # The directory TMPDIR names: the run's private graph store goes there.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    cache_dir = str(tmp_path / "cache")
    json_path = str(tmp_path / "batch.json")
    args = ["batch", "--suite", "throughput-micro", "--workers", "2",
            "--cache-dir", cache_dir]
    rc = main(args + ["--json", json_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "20/20 ok" in out
    assert "cache hits: 0/20" in out
    assert "store: 0 hits, 10 built" in out
    assert list((tmp_path / "tmp").glob("repro-graphs-*")) == []

    import json as _json

    doc = _json.loads((tmp_path / "batch.json").read_text())
    cold_wall = doc["stats"]["wall_time"]
    assert doc["stats"]["ok"] == 20

    # immediate re-run: served from cache, measurably faster
    rc = main(args + ["--json", json_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cache hits: 20/20" in out
    doc = _json.loads((tmp_path / "batch.json").read_text())
    assert doc["stats"]["cache_hits"] == 20
    assert doc["stats"]["wall_time"] < cold_wall

    # cache stats / clear round trip
    rc = main(["cache", "stats", "--cache-dir", cache_dir])
    assert rc == 0
    assert "entries: 20" in capsys.readouterr().out
    rc = main(["cache", "clear", "--cache-dir", cache_dir])
    assert rc == 0
    assert "cleared 20" in capsys.readouterr().out


def test_batch_report_and_jsonl_outputs(tmp_path, capsys):
    report = tmp_path / "report.md"
    jsonl = tmp_path / "results.jsonl"
    rc = main(["batch", "--suite", "derived-problems", "--workers", "1",
               "--no-cache", "--out", str(jsonl), "--report", str(report)])
    assert rc == 0
    text = report.read_text()
    assert "per-problem aggregates" in text
    assert "coloring" in text
    assert "ruling2" in text
    from repro.runtime import JobResult
    from repro.runtime.suites import build_suite

    lines = jsonl.read_text().splitlines()
    results = [JobResult.from_json(line) for line in lines]
    assert len(results) == len(build_suite("derived-problems")) == 9
    assert all(r.ok for r in results)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_algo():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["solve", "--force", "bogus"])
