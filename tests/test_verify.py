"""The verification suite's own machinery: the streamed Monte Carlo moment
check against a dense reference, its memory bound, and how `run_all` bills
the shared matrix runs."""

import time
import tracemalloc

import numpy as np
from numpy.random import default_rng

from abqlab import gp, kernels, transforms, verify
from abqlab.domain import BLOCK_POINTS, ConstantMean


def dense_worst_sigma(seed, n_mc, n_query):
    """The moment check's worst |closed - MC| / se, over one array of all
    n_mc draws, replaying the check's generator calls."""
    rng = default_rng(seed)
    X = rng.uniform(0.1, 0.9, size=(6, 1))
    z = rng.normal(0.3, 0.5, size=6)
    state = gp.build_state(kernels.Matern(nu=2.5, ell=0.3), ConstantMean(0.2), X, z)
    queries = rng.uniform(0.0, 1.0, size=(n_query, 1))
    post = gp.GridPosterior(state, queries)
    draws = rng.standard_normal(n_mc)
    worst = 0.0
    for t in (transforms.Square(alpha=1.0), transforms.Exponential()):
        for mu, v in zip(post.mean, post.var):
            samples = t.forward(mu + np.sqrt(v) * draws)
            se = np.std(samples, ddof=1) / np.sqrt(n_mc)
            if se > 0:
                closed = t.posterior_expectation(mu, v)
                worst = max(worst, float(abs(closed - np.mean(samples)) / se))
    return worst


def test_streamed_moment_check_equals_the_dense_one():
    n_mc, n_query = 100_003, 20
    assert n_mc % (BLOCK_POINTS // n_query) != 0  # a partial last block
    ok, detail = verify.check_moment_estimator(n_mc=n_mc, n_query=n_query)
    dense = dense_worst_sigma(5, n_mc, n_query)
    assert ok and detail["mc_samples"] == n_mc
    assert abs(detail["worst_sigma"] - dense) <= 1e-9 * dense


def test_moment_check_memory_stays_under_one_array_of_draws():
    n_mc = 1_000_000
    tracemalloc.start()
    try:
        ok, detail = verify.check_moment_estimator()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and detail["mc_samples"] == n_mc
    assert peak < 8 * n_mc, peak


def test_run_all_bills_the_matrix_runs_to_the_certificate_check(monkeypatch):
    def slow_matrix():
        time.sleep(0.2)
        return []

    monkeypatch.setattr(verify, "matrix_runs", slow_matrix)
    for name in ("check_projection_identity", "check_psi_inequality",
                 "check_certificates", "check_adaptivity_envelopes",
                 "check_error_bound", "check_rate_infinite", "check_rate_finite",
                 "check_moment_estimator", "check_inconsistency_caveat"):
        monkeypatch.setattr(verify, name, lambda *args: (True, {}))
    results = verify.run_all(printer=None)
    seconds = {r.tag: r.seconds for r in results}
    assert [r.tag for r in results][2] == "weak-greedy-certificate"
    assert seconds["weak-greedy-certificate"] >= 0.2
    assert sum(seconds.values()) - seconds["weak-greedy-certificate"] < 0.2
