"""The ``jit`` backend must be bit-identical to ``csr``/``batched`` everywhere.

The numba kernels in :mod:`repro.graphs.kernels_jit` are plain-Python
nopython-compatible bodies, so every parity property here runs in *both*
regimes: interpreted where numba is missing (this exercises the exact code
numba would compile) and compiled where it is present.  Only the end-to-end
solver runs are numba-gated -- without numba the resolvers fall back to the
numpy backends by design, so the jit code path would not be reached.

The fallback contract itself (degrade to ``csr``/``batched`` with a
one-time :class:`JitFallbackWarning` and a ``kernels.jit_fallbacks``
counter, never an error) is pinned by hiding numba via ``sys.modules``.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lowdeg import _a_set_weight, lowdeg_mis
from repro.core.params import Params
from repro.derand.seed_jit import make_lowdeg_objective
from repro.derand.strategies import resolve_seed_backend
from repro.graphs import gnp_random_graph
from repro.graphs import kernels, kernels_jit
from repro.graphs.coloring import _linial_step, distance2_coloring
from repro.graphs.kernels import kernel_backend_scope, resolve_backend
from repro.hashing.families import make_color_family
from repro.obs.metrics import METRICS

HAS_NUMBA = kernels_jit.available()

needs_numba = pytest.mark.skipif(
    not HAS_NUMBA, reason="compiled end-to-end path needs numba"
)


# --------------------------------------------------------------------- #
# Backend resolution and fallback semantics
# --------------------------------------------------------------------- #


def test_jit_is_a_registered_backend():
    assert "jit" in kernels.BACKENDS
    from repro.derand.strategies import SEED_BACKENDS

    assert "jit" in SEED_BACKENDS


def test_resolution_without_numba_degrades_with_warning_and_counter():
    """Hiding numba must resolve jit -> csr/batched: warn once, count twice."""
    hidden = dict(numba=None)
    saved = {k: sys.modules.get(k) for k in hidden}
    sys.modules.update(hidden)  # force `from numba import njit` to fail
    kernels_jit._reset_for_tests()
    before = METRICS.export().get("kernels.jit_fallbacks", 0)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert not kernels_jit.available()
            assert resolve_backend("jit") == "csr"
            assert resolve_seed_backend("jit") == "batched"
        fallback_warnings = [
            w for w in caught
            if issubclass(w.category, kernels_jit.JitFallbackWarning)
        ]
        assert len(fallback_warnings) == 1  # one-time, not per resolution
        after = METRICS.export().get("kernels.jit_fallbacks", 0)
        assert after - before == 2  # ...but the counter sees every fallback
    finally:
        for k, v in saved.items():
            if v is None:
                sys.modules.pop(k, None)
            else:
                sys.modules[k] = v
        kernels_jit._reset_for_tests()


def test_resolution_with_numba_present_keeps_jit():
    if not HAS_NUMBA:
        pytest.skip("needs numba installed")
    assert resolve_backend("jit") == "jit"
    assert resolve_seed_backend("jit") == "jit"


def test_kernel_backend_scope_accepts_jit():
    with kernel_backend_scope("jit"):
        assert resolve_backend() in ("jit", "csr")  # csr iff numba missing


# --------------------------------------------------------------------- #
# Segment kernels: jit twins vs csr builders
# --------------------------------------------------------------------- #


@given(
    st.lists(st.integers(0, 6), min_size=0, max_size=10),
    st.integers(0, 2**31),
)
@settings(max_examples=40)
def test_segment_block_kernels_match_csr(seg_sizes, seed):
    rng = np.random.default_rng(seed)
    sizes = np.asarray(seg_sizes, dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    total = int(indptr[-1])
    width = max(total, 1)
    cols = rng.integers(0, width, size=total)
    S = 5
    vals = rng.integers(0, 1 << 40, size=(S, width), dtype=np.uint64)
    fill = np.uint64(np.iinfo(np.uint64).max)
    mask = rng.random((S, width)) < 0.4
    item_mask = rng.random((S, total)) < 0.4

    min_csr = kernels.segment_min_block_fn(cols, indptr, width)(vals, fill)
    min_jit = kernels_jit.segment_min_block_fn(cols, indptr, width)(vals, fill)
    assert np.array_equal(min_csr, min_jit)

    any_csr = kernels.segment_any_block_fn(cols, indptr, width)(mask)
    any_jit = kernels_jit.segment_any_block_fn(cols, indptr, width)(mask)
    assert np.array_equal(any_csr, any_jit)

    cnt_csr = kernels.segment_count_2d(item_mask, indptr)
    cnt_jit = kernels_jit.segment_count_2d(item_mask, indptr)
    assert np.array_equal(cnt_csr, cnt_jit)


def test_segment_builders_dispatch_through_switchboard():
    """`backend="jit"` on the csr builders must route (or degrade) cleanly."""
    rng = np.random.default_rng(0)
    indptr = np.array([0, 3, 3, 7])
    cols = rng.integers(0, 8, size=7)
    vals = rng.integers(0, 100, size=(3, 8), dtype=np.uint64)
    fill = np.uint64(2**63)
    via_switch = kernels.segment_min_block_fn(cols, indptr, 8, backend="jit")(
        vals, fill
    )
    plain = kernels.segment_min_block_fn(cols, indptr, 8)(vals, fill)
    assert np.array_equal(via_switch, plain)


# --------------------------------------------------------------------- #
# Fused low-degree Luby phase objective
# --------------------------------------------------------------------- #


def _lowdeg_setup(g):
    n = g.n
    coloring = distance2_coloring(g)
    family = make_color_family(coloring.num_colors)
    colors = coloring.colors.astype(np.int64)
    a_mask, _ = _a_set_weight(g)
    deg = g.degrees()
    live = np.nonzero(deg > 0)[0].astype(np.int64)
    deg_sel = (deg * a_mask).astype(np.int64)
    key_dtype = np.uint32 if family.range * (n + 1) + n < 2**32 else np.uint64
    stride_k = key_dtype(n + 1)
    maxkey_k = key_dtype(np.iinfo(key_dtype).max)
    live_k = live.astype(key_dtype)
    nbr_min_fn = kernels.segment_min_block_fn(g.indices, g.indptr, n)
    nbr_any_fn = kernels.segment_any_block_fn(g.indices, g.indptr, n)

    def numpy_objective(seeds):
        z = family.evaluate_colors_batch(seeds, colors[live]).astype(key_dtype)
        key_full = np.full((z.shape[0], n), maxkey_k, dtype=key_dtype)
        key_full[:, live] = z * stride_k + live_k[None, :]
        nbr_min = nbr_min_fn(key_full, maxkey_k)
        i_mask = np.zeros(key_full.shape, dtype=bool)
        i_mask[:, live] = key_full[:, live] < nbr_min[:, live]
        covered = nbr_any_fn(i_mask)
        return ((covered | i_mask) @ deg_sel).astype(np.float64)

    fused = make_lowdeg_objective(
        family, colors[live], live, g.indices, g.indptr, deg_sel, n
    )
    return numpy_objective, fused, family


@pytest.mark.parametrize("gseed", [3, 11])
def test_lowdeg_objective_matches_numpy(gseed):
    g = gnp_random_graph(120, 0.05, seed=gseed)
    numpy_objective, fused, family = _lowdeg_setup(g)
    rng = np.random.default_rng(gseed)
    for seeds in (
        np.arange(1, 80, dtype=np.int64),
        rng.integers(0, family.size, size=40).astype(np.int64),
        np.array([1], dtype=np.int64),
    ):
        assert np.array_equal(numpy_objective(seeds), fused(seeds))


def test_lowdeg_objective_with_dead_nodes():
    """Nodes removed mid-run (degree 0) must stay out of selection."""
    g = gnp_random_graph(80, 0.06, seed=2)
    # Simulate a mid-run graph: kill a third of the nodes.
    kill = np.zeros(g.n, dtype=bool)
    kill[::3] = True
    g = g.remove_vertices(kill)
    numpy_objective, fused, _ = _lowdeg_setup(g)
    seeds = np.arange(1, 50, dtype=np.int64)
    assert np.array_equal(numpy_objective(seeds), fused(seeds))


# --------------------------------------------------------------------- #
# Linial clash kernel
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("gseed", [1, 9])
def test_linial_step_jit_matches_both_numpy_paths(gseed):
    g = gnp_random_graph(70, 0.08, seed=gseed)
    colors = np.arange(g.n, dtype=np.int64)
    palette = g.n
    legacy = _linial_step(g, colors, palette, backend="legacy")
    csr = _linial_step(g, colors, palette, backend="csr")
    assert legacy[1] == csr[1]
    assert np.array_equal(legacy[0], csr[0])
    if HAS_NUMBA:
        jit = _linial_step(g, colors, palette, backend="jit")
    else:
        # Resolver would degrade to csr; exercise the kernel body directly
        # through the same branch _linial_step takes when numba is present.
        from repro.graphs.coloring import _linial_field, _poly_evals

        q, d = _linial_field(g.max_degree(), palette)
        _, evals = _poly_evals(colors, q, d)
        x_of = kernels_jit.linial_first_free(evals, g.indices, g.indptr)
        jit = (x_of * q + evals[np.arange(g.n), x_of], q * q)
    assert jit[1] == csr[1]
    assert np.array_equal(jit[0], csr[0])


# --------------------------------------------------------------------- #
# End-to-end solves under the jit backends (compiled path only)
# --------------------------------------------------------------------- #


@needs_numba
def test_lowdeg_mis_end_to_end_jit_identical():
    g = gnp_random_graph(150, 0.04, seed=13)
    base = lowdeg_mis(g, Params())
    jit = lowdeg_mis(
        g, Params(kernel_backend="jit", seed_backend="jit")
    )
    assert np.array_equal(base.independent_set, jit.independent_set)
    assert base.iterations == jit.iterations
    assert base.rounds == jit.rounds


def test_jit_backend_solve_never_errors_without_numba():
    """Requesting jit in a numba-less env must solve via the fallback."""
    g = gnp_random_graph(60, 0.08, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", kernels_jit.JitFallbackWarning)
        res = lowdeg_mis(g, Params(kernel_backend="jit", seed_backend="jit"))
    base = lowdeg_mis(g, Params())
    assert np.array_equal(res.independent_set, base.independent_set)
