import numpy as np
import pytest

from abqlab import gp
from abqlab.domain import ConstantMean, SyntheticIntegrand, rkhs_norm
from abqlab.exceptions import LinearDependenceError
from abqlab.kernels import Matern, SquaredExponential, gram
from abqlab.transforms import Identity


def make_state(kernel=None, n=6, seed=0, mean_value=0.3):
    rng = np.random.default_rng(seed)
    kernel = kernel or Matern(2.5, 0.3)
    X = rng.uniform(0.05, 0.95, size=(n, 1))
    z = rng.normal(0, 1, size=n)
    return gp.build_state(kernel, ConstantMean(mean_value), X, z), X, z


def test_empty_state_returns_prior():
    state = gp.empty_state(SquaredExponential(0.5), ConstantMean(1.5), 1)
    X = np.array([[0.2], [0.9]])
    assert np.allclose(gp.posterior_mean(state, X), 1.5)
    assert np.allclose(gp.posterior_var(state, X), 1.0)


def test_posterior_mean_matches_dense_solve_oracle():
    state, X, z = make_state()
    q = np.linspace(0, 1, 11)[:, None]
    K = gram(state.kernel, X) + state.jitter_used * np.eye(len(X))
    alpha = np.linalg.solve(K, z - 0.3)
    oracle = 0.3 + state.kernel.pairwise(q, X) @ alpha
    assert np.allclose(gp.posterior_mean(state, q), oracle, atol=1e-10)


def test_posterior_var_matches_dense_solve_oracle():
    state, X, _ = make_state()
    q = np.linspace(0, 1, 11)[:, None]
    K = gram(state.kernel, X) + state.jitter_used * np.eye(len(X))
    Kq = state.kernel.pairwise(q, X)
    oracle = state.kernel.diag(q) - np.einsum(
        "ij,ij->i", Kq, np.linalg.solve(K, Kq.T).T
    )
    assert np.allclose(gp.posterior_var(state, q), np.maximum(oracle, 0), atol=1e-10)


def test_posterior_equals_mean_and_var_paths():
    state, _, _ = make_state()
    empty = gp.empty_state(state.kernel, state.mean, 1)
    q = np.linspace(0, 1, 11)[:, None]
    for s in (empty, state):
        mean, var = gp.posterior(s, q)
        assert np.array_equal(mean, gp.posterior_mean(s, q))
        assert np.array_equal(var, gp.posterior_var(s, q))


def test_interpolation_at_design_points():
    state, X, z = make_state()
    assert np.allclose(gp.posterior_mean(state, X), z, atol=1e-6)
    assert np.all(gp.posterior_var(state, X) < 1e-8)


def test_extend_matches_batch_build():
    kernel = Matern(1.5, 0.25)
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 1, size=(7, 2))
    z = rng.normal(size=7)
    batch = gp.build_state(kernel, ConstantMean(0.0), X, z)
    seq = gp.empty_state(kernel, ConstantMean(0.0), 2)
    for xi, zi in zip(X, z):
        seq = gp.extend(seq, xi[None, :], zi)
    q = rng.uniform(0, 1, size=(9, 2))
    assert np.allclose(gp.posterior_mean(seq, q), gp.posterior_mean(batch, q),
                       atol=1e-8)
    assert np.allclose(gp.posterior_var(seq, q), gp.posterior_var(batch, q),
                       atol=1e-8)


def test_variance_monotone_under_conditioning():
    state, _, _ = make_state(n=4)
    q = np.linspace(0, 1, 50)[:, None]
    before = gp.posterior_var(state, q)
    bigger = gp.extend(state, np.array([[0.5]]), 0.0)
    after = gp.posterior_var(bigger, q)
    assert np.all(after <= before + 1e-9)


def test_worst_case_interpolation_bound():
    # |g(x) - m_n(x)| <= ||g|| sqrt(k_n(x, x)) for g in the native space
    kernel = Matern(2.5, 0.3)
    g = SyntheticIntegrand(
        centers=np.array([[0.2], [0.6], [0.85]]),
        weights=np.array([0.8, -0.5, 0.3]),
        prior_mean=ConstantMean(0.0), kernel=kernel, transform=Identity(),
    )
    norm = rkhs_norm(g)
    X = np.array([[0.1], [0.4], [0.7], [0.9]])
    state = gp.build_state(kernel, ConstantMean(0.0), X, g.latent(X))
    q = np.linspace(0, 1, 200)[:, None]
    gap = np.abs(g.latent(q) - gp.posterior_mean(state, q))
    bound = norm * np.sqrt(gp.posterior_var(state, q))
    assert np.all(gap <= bound + 1e-9)


def test_extend_rejects_duplicate_point():
    state, X, _ = make_state()
    with pytest.raises(LinearDependenceError):
        gp.extend(state, X[0][None, :], 0.0)


def test_extend_is_persistent():
    state, _, _ = make_state(n=3)
    n_before = state.n
    gp.extend(state, np.array([[0.99]]), 1.0)
    assert state.n == n_before
