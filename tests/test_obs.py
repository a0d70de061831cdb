"""repro.obs: span nesting, parity, metrics, sinks, conformance fits.

The two contracts that matter most:

* **Disabled is free and invisible** — with tracing off, solver outputs,
  ledger totals, and result envelopes are bit-identical to a traced run's
  (minus the trace itself), and no span machinery executes.
* **Spans follow the call tree** — arbitrary nesting (including exceptions
  escaping mid-tree) always restores the parent and finishes every span
  exactly once, in child-first completion order.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import REGISTRY, SolveRequest, solve
from repro.core.api import uses_lowdeg_path
from repro.core.params import Params
from repro.graphs import gnp_random_graph
from repro.graphs.streaming import gnp_block_graph
from repro.obs import MetricsRegistry, trace_capture
from repro.obs import trace as obs_trace
from repro.analysis.conformance import conformance_report
from repro.obs.sinks import (
    chrome_trace,
    diff_summaries,
    read_jsonl,
    summarize,
    top_spans,
    write_jsonl,
)


# --------------------------------------------------------------------- #
# Span mechanics
# --------------------------------------------------------------------- #


def test_span_is_noop_without_capture_or_env(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    obs_trace.refresh_env()
    assert not obs_trace.is_tracing()
    with obs_trace.span("solve", n=5) as s:
        assert s is None
    assert obs_trace.current_span() is None


def test_nested_spans_record_parent_links():
    with trace_capture() as buf:
        with obs_trace.span("outer", k=1):
            with obs_trace.span("inner"):
                pass
            with obs_trace.span("inner2"):
                pass
    by_name = {s["name"]: s for s in buf.spans}
    assert set(by_name) == {"outer", "inner", "inner2"}
    assert by_name["outer"]["parent"] == 0
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["inner2"]["parent"] == by_name["outer"]["id"]
    # Children complete before their parent.
    assert buf.spans[-1]["name"] == "outer"
    assert by_name["outer"]["attrs"] == {"k": 1}


def test_span_tags_and_reraises_exceptions():
    with trace_capture() as buf:
        with pytest.raises(ValueError):
            with obs_trace.span("root"):
                with obs_trace.span("bad"):
                    raise ValueError("boom")
    by_name = {s["name"]: s for s in buf.spans}
    assert by_name["bad"]["attrs"]["error"] == "ValueError"
    assert by_name["root"]["attrs"]["error"] == "ValueError"
    # Both spans were finished despite the exception.
    assert len(buf.spans) == 2


@given(
    st.recursive(
        st.just([]),
        lambda kids: st.lists(kids, min_size=1, max_size=3),
        max_leaves=8,
    )
)
@settings(max_examples=25, deadline=None)
def test_arbitrary_nesting_finishes_every_span_once(tree):
    """Property: any span tree records one dict per opened span, and the
    parent pointer of each span is the span that was open when it started."""

    expected = []

    def walk(node, label):
        with obs_trace.span(label) as s:
            expected.append(label)
            assert obs_trace.current_span() is s
            for i, child in enumerate(node):
                walk(child, f"{label}.{i}")

    with trace_capture() as buf:
        walk(tree, "r")
    assert sorted(s["name"] for s in buf.spans) == sorted(expected)
    ids = {s["name"]: s["id"] for s in buf.spans}
    for s in buf.spans:
        if s["name"] == "r":
            assert s["parent"] == 0
        else:
            parent_label = s["name"].rsplit(".", 1)[0]
            assert s["parent"] == ids[parent_label]
    assert obs_trace.current_span() is None


@given(
    st.lists(
        st.sampled_from(["open", "raise"]), min_size=1, max_size=12
    )
)
@settings(max_examples=25, deadline=None)
def test_exception_storms_never_leak_open_spans(script):
    """Property: interleaving normal and raising spans leaves no span open
    and the buffer length equals the number of spans opened."""
    opened = 0
    with trace_capture() as buf:
        for op in script:
            opened += 1
            if op == "raise":
                with pytest.raises(RuntimeError):
                    with obs_trace.span("s"):
                        raise RuntimeError()
            else:
                with obs_trace.span("s"):
                    pass
        assert obs_trace.current_span() is None
    assert len(buf.spans) == opened


def test_record_span_attaches_to_open_parent():
    t0 = obs_trace.clock()
    with trace_capture() as buf:
        with obs_trace.span("parent"):
            obs_trace.record_span("leaf", t0, {"i": 3})
    by_name = {s["name"]: s for s in buf.spans}
    assert by_name["leaf"]["parent"] == by_name["parent"]["id"]
    assert by_name["leaf"]["attrs"] == {"i": 3}
    assert by_name["leaf"]["dur"] >= 0.0


def test_nested_captures_are_disjoint():
    with trace_capture() as outer:
        with obs_trace.span("a"):
            with trace_capture() as inner:
                with obs_trace.span("b"):
                    pass
    assert [s["name"] for s in inner.spans] == ["b"]
    assert [s["name"] for s in outer.spans] == ["a"]
    # The inner capture's root really was a root, not a child of "a".
    assert inner.spans[0]["parent"] == 0


def test_env_parsing(monkeypatch):
    for off in ("", "0", "off", "FALSE", "none"):
        monkeypatch.setenv("REPRO_TRACE", off)
        obs_trace.refresh_env()
        assert not obs_trace.is_tracing()
        assert obs_trace.env_trace_destination() is None
    for on in ("1", "on", "TRUE", "yes"):
        monkeypatch.setenv("REPRO_TRACE", on)
        obs_trace.refresh_env()
        assert obs_trace.is_tracing()
        assert obs_trace.env_trace_destination() is None
    monkeypatch.setenv("REPRO_TRACE", "/tmp/some/trace.jsonl")
    obs_trace.refresh_env()
    assert obs_trace.is_tracing()
    assert obs_trace.env_trace_destination() == "/tmp/some/trace.jsonl"
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    obs_trace.refresh_env()
    assert not obs_trace.is_tracing()


# --------------------------------------------------------------------- #
# Parity: tracing off leaves solves bit-identical
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "problem,model",
    [
        ("mis", "simulated"),
        ("matching", "simulated"),
        ("mis", "mpc-engine"),
        ("mis", "cclique"),
        ("mis", "congest"),
    ],
)
def test_traced_and_untraced_solves_are_bit_identical(problem, model):
    g = gnp_random_graph(120, 0.05, seed=11)

    def req():
        return SolveRequest(problem=problem, model=model, graph=g)

    plain = solve(req())
    assert plain.trace is None
    assert plain.metrics == {}
    with trace_capture():
        traced = solve(req())
    assert traced.trace, "traced solve recorded no spans"
    np.testing.assert_array_equal(plain.solution, traced.solution)
    assert plain.rounds == traced.rounds
    assert plain.words_moved == traced.words_moved
    assert plain.solution_size == traced.solution_size
    assert plain.verified == traced.verified


def test_engine_round_spans_one_per_round():
    """The headline criterion: one ``engine.round`` span per engine round,
    each carrying the word/space attributes."""
    g = gnp_random_graph(150, 0.05, seed=3)
    with trace_capture():
        res = solve(SolveRequest(problem="mis", model="mpc-engine", graph=g))
    rounds = [s for s in res.trace if s["name"] == "engine.round"]
    assert len(rounds) == res.rounds
    for s in rounds:
        assert "words_sent" in s["attrs"]
        assert "space_high_water" in s["attrs"]
        assert s["attrs"]["space_limit"] > 0
    # Round spans nest under the solve root.
    root = [s for s in res.trace if s["name"] == "solve"]
    assert len(root) == 1
    assert root[0]["attrs"]["rounds"] == res.rounds
    assert {s["parent"] for s in rounds} == {root[0]["id"]}


def test_ledger_charges_land_on_spans():
    g = gnp_random_graph(90, 0.06, seed=5)
    with trace_capture():
        res = solve(SolveRequest(problem="mis", model="cclique", graph=g))
    charges = [
        ev
        for s in res.trace
        for ev in s["events"]
        if ev["name"] == "charge"
    ]
    assert charges, "no ledger charges recorded"
    assert sum(ev["rounds"] for ev in charges) == res.rounds
    assert sum(ev["words"] for ev in charges) == res.words_moved


def _charged(res) -> tuple[int, int]:
    """Rounds and words summed over a traced solve's ``charge`` events."""
    charges = [ev for s in res.trace for ev in s["events"] if ev["name"] == "charge"]
    return sum(ev["rounds"] for ev in charges), sum(ev["words"] for ev in charges)


def test_traced_charges_add_up_to_the_bill_for_every_entry():
    """Each charge lands in the trace exactly once.  ``matching`` and ``vc``
    take the low-degree path on this input, whose line-graph sub-run used
    to be charged a second time when its bill was merged."""
    g = gnp_block_graph(1000, 4 / 1000, 1)
    requests = [
        SolveRequest(problem=e.problem, model=e.model, graph=g)
        for e in REGISTRY.entries()
    ] + [
        SolveRequest(problem=p, model="simulated", graph=g, force="general")
        for p in ("mis", "matching")
    ]
    assert uses_lowdeg_path(g, Params(), for_matching=True)
    for req in requests:
        with trace_capture():
            res = solve(req)
        label = f"{req.problem}/{req.model}/{req.force}"
        assert _charged(res) == (res.rounds, res.words_moved), label


def test_solve_attaches_metrics_delta():
    g = gnp_random_graph(80, 0.05, seed=9)
    with trace_capture():
        res = solve(SolveRequest(problem="mis", model="simulated", graph=g))
    assert res.metrics.get("seed_scan.chunks", 0) > 0
    assert res.metrics.get("seed_scan.trials", 0) > 0


def test_solve_result_payload_roundtrips_trace():
    g = gnp_random_graph(60, 0.05, seed=2)
    with trace_capture():
        res = solve(SolveRequest(problem="mis", model="simulated", graph=g))
    meta, arrays = res.to_payload()
    meta = json.loads(json.dumps(meta))  # must be JSON-safe
    back = type(res).from_payload(meta, arrays)
    assert back.trace == res.trace
    assert back.metrics == res.metrics


# --------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------- #


def test_metrics_counters_gauges_histograms():
    reg = MetricsRegistry()
    reg.inc("jobs")
    reg.inc("jobs", 4)
    reg.gauge("depth", 7)
    for v in (1.0, 3.0, 8.0):
        reg.observe("lat", v)
    out = reg.export()
    assert out["jobs"] == 5
    assert out["depth"] == 7
    assert out["lat.count"] == 3
    assert out["lat.sum"] == 12.0
    assert out["lat.min"] == 1.0
    assert out["lat.max"] == 8.0
    assert out["lat.mean"] == 4.0


def test_metrics_delta_drops_zero_rows():
    reg = MetricsRegistry()
    reg.inc("a")
    before = reg.counters_snapshot()
    reg.inc("b", 2)
    delta = MetricsRegistry.delta(before, reg.counters_snapshot())
    assert delta == {"b": 2}


# --------------------------------------------------------------------- #
# Sinks: JSONL round trip, Chrome trace, summaries
# --------------------------------------------------------------------- #


def _sample_spans():
    with trace_capture() as buf:
        with obs_trace.span("solve", n=10):
            with obs_trace.span("stage"):
                obs_trace.ledger_event("round", 2, 50)
    return buf.spans


def test_jsonl_roundtrip(tmp_path):
    spans = _sample_spans()
    path = tmp_path / "t.jsonl"
    write_jsonl(spans, path)
    assert read_jsonl(path) == spans
    # Torn/blank lines are skipped, not fatal.
    with open(path, "a") as fh:
        fh.write("\n{\"truncated\": \n")
    assert read_jsonl(path) == spans


def test_chrome_trace_structure():
    spans = _sample_spans()
    doc = chrome_trace(spans)
    assert json.loads(json.dumps(doc)) == doc
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert {e["name"] for e in complete} == {"solve", "stage"}
    assert len(instants) == 1  # the ledger charge
    by_name = {e["name"]: e for e in complete}
    # tid encodes tree depth: root at 0, child at 1.
    assert by_name["solve"]["tid"] == 0
    assert by_name["stage"]["tid"] == 1
    assert all(e["ts"] >= 0 for e in events)


def test_summarize_top_and_diff():
    spans = _sample_spans()
    summary = summarize(spans)
    assert summary["spans"] == 2
    assert summary["by_name"]["solve"]["count"] == 1
    assert summary["charges"]["round"] == {"rounds": 2, "words": 50}
    ranked = top_spans(spans, k=1)
    assert len(ranked) == 1 and ranked[0]["name"] == "solve"
    diff = diff_summaries(summary, summarize(spans + spans))
    assert diff["by_name"]["solve"]["count_b"] == 2
    assert diff["charges"]["round"]["rounds_delta"] == 2


# --------------------------------------------------------------------- #
# Conformance fits
# --------------------------------------------------------------------- #


def test_conformance_report_mis_simulated():
    rep = conformance_report("mis", "simulated", sizes=[48, 96], reps=2)
    assert rep["conformant"] is True
    assert {f["metric"] for f in rep["fits"]} == {"rounds", "words_moved"}
    assert all(r["reps"] == 2 for r in rep["rows"])
