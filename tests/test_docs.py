"""Doc generation (repro.analysis.docgen) and the evaluate_entry gaps.

Covers: content of the generated THEORY/REGISTRY markdown, the
write/check freshness roundtrip, the `repro docs --check` CLI exit
codes, and the conformance records that keep declaration gaps visible
(no-claims entries, never-charged categories).
"""

from __future__ import annotations

import pytest

from repro.__main__ import main as repro_main
from repro.analysis import docgen
from repro.api import REGISTRY
from repro.analysis.conformance import evaluate_entry


def test_theory_markdown_covers_every_entry():
    text = docgen.theory_markdown()
    for entry in REGISTRY.entries():
        assert f"### `{entry.problem}` / `{entry.model}`" in text
    # The symbol vocabulary table is rendered from the module constants.
    from repro.analysis import symbolic

    for name in symbolic.SYMBOL_NAMES:
        assert f"| `{name}` |" in text


def test_theory_markdown_renders_claims_and_refs():
    text = docgen.theory_markdown()
    # A known declaration shows up as an O(·) claim row...
    assert "| charge `phase_seed` | `rounds` |" in text
    assert "O(depth*seed_bits*log(delta))" in text
    # ...with its paper reference line.
    assert "Theorem 1" in text


def test_registry_markdown_matrix_and_entries():
    text = docgen.registry_markdown()
    assert "## Coverage matrix" in text
    for entry in REGISTRY.entries():
        assert f"- **{entry.problem} / {entry.model}**" in text
    # Every current entry declares claims, so none reads "none declared".
    assert "none declared" not in text


def test_generated_docs_are_deterministic():
    assert docgen.theory_markdown() == docgen.theory_markdown()
    assert docgen.registry_markdown() == docgen.registry_markdown()


def test_write_then_check_roundtrip(tmp_path):
    out = tmp_path / "docs"
    # Missing files are stale by definition.
    assert set(docgen.check_docs(out)) == set(docgen.GENERATED_FILES)
    written = docgen.write_docs(out)
    assert {p.name for p in written} == set(docgen.GENERATED_FILES)
    assert docgen.check_docs(out) == []
    # Any drift — a hand edit, a stale render — is caught by name.
    (out / "THEORY.md").write_text("tampered")
    assert docgen.check_docs(out) == ["THEORY.md"]


def test_checked_in_docs_are_fresh():
    # The repo's own docs/ must match the registry (the CI gate, in-tree).
    assert docgen.check_docs("docs") == []


def test_docs_cli_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "docs")
    assert repro_main(["docs", "--check", "--out", out]) == 1
    assert "out of date" in capsys.readouterr().err
    assert repro_main(["docs", "--out", out]) == 0
    assert repro_main(["docs", "--check", "--out", out]) == 0
    assert "up to date" in capsys.readouterr().out


def test_generated_header_marks_files(tmp_path):
    for render in docgen.GENERATED_FILES.values():
        assert render().startswith("<!-- Generated by")


# --------------------------------------------------------------------- #
# evaluate_entry: gaps stay visible
# --------------------------------------------------------------------- #


class _Entry:
    def __init__(self, cost_model):
        self.cost_model = cost_model


def _rows():
    return [
        {"n": n, "m": 3 * n, "delta": 8, "rounds": 2.0, "words_moved": 6.0 * n,
         "charges": {"stage": {"rounds": 2.0, "words": 0.0}}}
        for n in (64, 128, 256)
    ]


def test_no_claims_entry_yields_explicit_row():
    report = evaluate_entry(_Entry(None), _rows())
    assert report["fits"] == [
        {"metric": None, "category": None, "ok": None,
         "status": "no claims declared"}
    ]
    assert report["conformant"] is None


def test_never_charged_category_is_reported():
    entry = _Entry(
        {"phases": {"ghost_phase": {"rounds": "log(n)"}}}
    )
    report = evaluate_entry(entry, _rows(), symbolic=True)
    (fit,) = report["fits"]
    assert fit["category"] == "ghost_phase"
    assert fit["ok"] is None
    assert fit["status"] == "category never charged in this sweep"
    assert report["conformant"] is None  # nothing decidable


def test_totals_checked_without_symbolic_flag():
    entry = _Entry(
        {"words_moved": "m",
         "phases": {"stage": {"rounds": "log(delta)"}}}
    )
    report = evaluate_entry(entry, _rows())
    assert [f["metric"] for f in report["fits"]] == ["words_moved"]
    assert report["conformant"] is True
    # symbolic=True adds the per-category stream check on the same rows.
    report = evaluate_entry(entry, _rows(), symbolic=True)
    assert [(f["category"], f["metric"]) for f in report["fits"]] == [
        (None, "words_moved"), ("stage", "rounds"),
    ]
    assert report["conformant"] is True


def test_outgrown_total_fails_conformance():
    entry = _Entry({"words_moved": "log(n)"})  # truth is Theta(n)
    report = evaluate_entry(entry, _rows())
    assert report["conformant"] is False


def test_refs_and_notes_flow_through():
    entry = _Entry(
        {"words_moved": "m", "refs": ("Theorem 1",), "notes": "caveat"}
    )
    report = evaluate_entry(entry, _rows())
    assert report["refs"] == ["Theorem 1"]
    assert report["notes"] == "caveat"


def test_invalid_declaration_raises_at_check_time():
    with pytest.raises(ValueError, match="unknown cost_model keys"):
        evaluate_entry(_Entry({"latency": "n"}), _rows())
