"""Statistical validation of the randomness properties the proofs rely on.

The derandomization machinery is only sound if the hash families actually
deliver the distributional behaviour the lemmas assume.  Beyond the exact
exhaustive checks in test_hashing_kwise.py (small fields), these tests
validate the *scaled* behaviour: sampling concentration (the empirical
Lemma 9), near-uniform thresholds, negligible tie rates in wide-range
z-values, and Luby's expected progress under pairwise independence
(the expectation behind Lemma 13/21 targets).
"""

import numpy as np

from repro.graphs import gnp_random_graph
from repro.hashing import make_family, make_product_family


def test_sampling_concentration_across_family():
    """Chebyshev-grade concentration of |sampled| across many seeds:
    the fraction of seeds with |Z - mu| > 4 sigma must be tiny (Lemma 9's
    role at c = 2)."""
    fam = make_family(universe=4096, k=2)
    xs = np.arange(4096, dtype=np.int64)
    prob = 0.25
    t = fam.threshold(prob)
    p_real = t / fam.q
    mu = 4096 * p_real
    sigma = np.sqrt(4096 * p_real * (1 - p_real))
    bad = 0
    seeds = range(1, 2001)
    for s in seeds:
        z = int((fam.evaluate(s, xs) < np.uint64(t)).sum())
        if abs(z - mu) > 4 * sigma:
            bad += 1
    # Chebyshev at 4 sigma gives <= 1/16; the realised rate is far smaller.
    assert bad / 2000 <= 1 / 16


def test_per_machine_goodness_probability():
    """A random seed makes a fixed chunk 'good' with the probability the
    stage analysis needs (>= 3/4 at 2-sigma windows)."""
    fam = make_family(universe=1024, k=4)
    chunk = np.arange(64, dtype=np.int64)  # one machine's items
    prob = 0.5
    t = fam.threshold(prob)
    p_real = t / fam.q
    mu = 64 * p_real
    lam = 2 * np.sqrt(64 * p_real * (1 - p_real))
    good = 0
    for s in range(1, 1001):
        z = int((fam.evaluate(s, chunk) < np.uint64(t)).sum())
        if abs(z - mu) <= lam:
            good += 1
    assert good / 1000 >= 0.75


def test_threshold_rate_is_accurate_on_average():
    """Averaged over seeds, the sampling rate equals floor(p q)/q exactly
    (marginal uniformity)."""
    fam = make_family(universe=1000, k=2)
    xs = np.arange(1000, dtype=np.int64)
    prob = 0.37
    t = fam.threshold(prob)
    rates = [
        (fam.evaluate(s, xs) < np.uint64(t)).mean() for s in range(1, 400)
    ]
    assert abs(np.mean(rates) - t / fam.q) < 0.01


def test_product_family_tie_rate_negligible():
    """Wide-range z-values: ties among 2000 ids should be ~never (the
    paper's [n^3] range argument)."""
    fam = make_product_family(2000, k=2)
    xs = np.arange(2000, dtype=np.int64)
    ties = 0
    for s in range(1, 101):
        z = fam.evaluate(s, xs)
        ties += int(z.size - np.unique(z).size)
    assert ties <= 2  # ~0 expected; allow cosmic slack


def test_luby_expected_progress_under_pairwise():
    """Empirical Lemma 13-flavour check: averaged over pairwise seeds, a
    Luby matching step covers a constant fraction of edges -- far above
    the 1/109-of-W_B bound the scan targets use."""
    g = gnp_random_graph(300, 0.03, seed=9)
    fam = make_product_family(g.m, k=2)
    eids = np.arange(g.m, dtype=np.int64)
    stride = np.uint64(g.m + 1)
    maxkey = np.uint64(2**63 - 1)
    removed_fracs = []
    for s in range(1, 201):
        z = fam.evaluate(s, eids)
        key = z * stride + eids.astype(np.uint64)
        node_min = np.full(g.n, maxkey, dtype=np.uint64)
        np.minimum.at(node_min, g.edges_u, key)
        np.minimum.at(node_min, g.edges_v, key)
        matched = (key == node_min[g.edges_u]) & (key == node_min[g.edges_v])
        kill = np.zeros(g.n, dtype=bool)
        kill[g.edges_u[matched]] = True
        kill[g.edges_v[matched]] = True
        removed = np.count_nonzero(kill[g.edges_u] | kill[g.edges_v])
        removed_fracs.append(removed / g.m)
    assert np.mean(removed_fracs) >= 0.1


def test_scan_finds_good_seed_quickly_on_average():
    """The O(1)-expected-trials claim behind the seed scan: the
    median first index achieving half the mean objective is tiny."""
    g = gnp_random_graph(200, 0.05, seed=10)
    fam = make_product_family(g.m, k=2)
    eids = np.arange(g.m, dtype=np.int64)
    stride = np.uint64(g.m + 1)
    maxkey = np.uint64(2**63 - 1)

    def covered(seed: int) -> float:
        z = fam.evaluate(seed, eids)
        key = z * stride + eids.astype(np.uint64)
        node_min = np.full(g.n, maxkey, dtype=np.uint64)
        np.minimum.at(node_min, g.edges_u, key)
        np.minimum.at(node_min, g.edges_v, key)
        matched = (key == node_min[g.edges_u]) & (key == node_min[g.edges_v])
        return float(matched.sum())

    sample = [covered(s) for s in range(1, 101)]
    target = 0.5 * float(np.mean(sample))
    first_hits = []
    for block in range(10):
        start = 1 + block * 50
        for idx, s in enumerate(range(start, start + 50)):
            if covered(s) >= target:
                first_hits.append(idx + 1)
                break
    assert np.median(first_hits) <= 3
