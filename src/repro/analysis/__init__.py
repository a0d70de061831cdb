"""Analysis: theory bounds, curve fits, table rendering, and doc generation."""

from .docgen import check_docs, registry_markdown, theory_markdown, write_docs
from .progress import LinearFit, fit_geometric_decay, fit_linear
from .report import batch_report, cross_model_report, run_report
from .tables import render_series, render_table
from .theory import (
    lowdeg_round_bound,
    matching_iteration_bound,
    mis_iteration_bound,
    seed_bits_colors,
    seed_bits_ids,
)

__all__ = [
    "LinearFit",
    "batch_report",
    "check_docs",
    "cross_model_report",
    "fit_geometric_decay",
    "fit_linear",
    "lowdeg_round_bound",
    "matching_iteration_bound",
    "mis_iteration_bound",
    "registry_markdown",
    "render_series",
    "render_table",
    "run_report",
    "seed_bits_colors",
    "seed_bits_ids",
    "theory_markdown",
    "write_docs",
]
