import copy

import numpy as np
import pytest
from hypothesis import given, strategies as st

from abqlab import gp
from abqlab.domain import ConstantMean, SyntheticIntegrand, rkhs_norm
from abqlab.exceptions import LinearDependenceError, NumericalDegradationError
from abqlab.kernels import Matern, SquaredExponential, Wendland, gram
from abqlab.transforms import Identity


def make_state(kernel=None, n=6, seed=0, mean_value=0.3):
    rng = np.random.default_rng(seed)
    kernel = kernel or Matern(2.5, 0.3)
    X = rng.uniform(0.05, 0.95, size=(n, 1))
    z = rng.normal(0, 1, size=n)
    return gp.build_state(kernel, ConstantMean(mean_value), X, z), X, z


def test_empty_state_returns_prior():
    state = gp.empty_state(SquaredExponential(0.5), ConstantMean(1.5), 1)
    post = gp.GridPosterior(state, np.array([[0.2], [0.9]]))
    assert np.allclose(post.mean, 1.5)
    assert np.allclose(post.var, 1.0)


def test_posterior_mean_matches_dense_solve_oracle():
    state, X, z = make_state()
    q = np.linspace(0, 1, 11)[:, None]
    K = gram(state.kernel, X) + state.jitter_used * np.eye(len(X))
    alpha = np.linalg.solve(K, z - 0.3)
    oracle = 0.3 + state.kernel.pairwise(q, X) @ alpha
    assert np.allclose(gp.GridPosterior(state, q).mean, oracle, atol=1e-10)


def test_posterior_var_matches_dense_solve_oracle():
    state, X, _ = make_state()
    q = np.linspace(0, 1, 11)[:, None]
    K = gram(state.kernel, X) + state.jitter_used * np.eye(len(X))
    Kq = state.kernel.pairwise(q, X)
    oracle = state.kernel.sup_diag() - np.einsum(
        "ij,ij->i", Kq, np.linalg.solve(K, Kq.T).T
    )
    assert np.allclose(gp.GridPosterior(state, q).var, np.maximum(oracle, 0), atol=1e-10)


def test_interpolation_at_design_points():
    state, X, z = make_state()
    post = gp.GridPosterior(state, X)
    assert np.allclose(post.mean, z, atol=1e-6)
    assert np.all(post.var < 1e-8)


def test_extend_matches_batch_build():
    kernel = Matern(1.5, 0.25)
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 1, size=(7, 2))
    z = rng.normal(size=7)
    batch = gp.build_state(kernel, ConstantMean(0.0), X, z)
    seq = gp.empty_state(kernel, ConstantMean(0.0), 2)
    for xi, zi in zip(X, z):
        seq = gp.GridPosterior(seq, xi, capacity=1).add(0, zi)
    q = rng.uniform(0, 1, size=(9, 2))
    chained, built = gp.GridPosterior(seq, q), gp.GridPosterior(batch, q)
    assert np.allclose(chained.mean, built.mean, atol=1e-8)
    assert np.allclose(chained.var, built.var, atol=1e-8)


def test_variance_monotone_under_conditioning():
    state, _, _ = make_state(n=4)
    q = np.linspace(0, 1, 50)[:, None]
    before = gp.GridPosterior(state, q).var
    bigger = gp.GridPosterior(state, np.array([[0.5]]), capacity=1).add(0, 0.0)
    after = gp.GridPosterior(bigger, q).var
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
    post = gp.GridPosterior(state, q)
    gap = np.abs(g.latent(q) - post.mean)
    bound = norm * np.sqrt(post.var)
    assert np.all(gap <= bound + 1e-9)


def test_extend_rejects_duplicate_point():
    state, X, _ = make_state()
    with pytest.raises(LinearDependenceError):
        gp.GridPosterior(state, X[0], capacity=1).add(0, 0.0)


def test_grid_posterior_extend_rejects_by_the_variance_it_holds():
    # points ever closer to a design point: the variances cross the floor,
    # and add rejects exactly those at or below it
    state, X, _ = make_state()
    P = X[0] + np.logspace(-1, -9, 33)[:, None]
    post = gp.GridPosterior(state, P, capacity=1)
    rejected = []
    for j in range(len(P)):
        try:
            copy.deepcopy(post).add(j, 0.0)
            rejected.append(False)
        except LinearDependenceError:
            rejected.append(True)
    spanned = post.spanned()
    assert np.array_equal(spanned, post.var <= gp.dependence_floor(state.jitter_used,
                                                                  post.prior_var))
    assert np.array_equal(rejected, spanned)
    assert 0 < spanned.sum() < len(P)


def test_extend_is_persistent():
    state, _, _ = make_state(n=3)
    n_before = state.n
    post = gp.GridPosterior(state, np.array([[0.99]]), capacity=1)
    assert post.add(0, 1.0).n == n_before + 1
    assert state.n == n_before


# Property tests of the incremental paths against the dense ones. Both are
# exact in exact arithmetic and round differently; their gap grows with the
# condition number kappa of the jittered Gram matrix. Stated tolerance:
# |mean gap| <= MEAN_TOL * eps * kappa * max(1, max |z - m|) and
# |var gap| <= VAR_TOL * eps * kappa. On 900 random lattice designs the
# observed gaps stayed below 140 and 2 in these units.
EPS = np.finfo(float).eps
MEAN_TOL = 1e3
VAR_TOL = 1e2
PROPERTY_KERNELS = (Matern(0.5, 0.3), Matern(2.5, 0.3), SquaredExponential(0.3),
                    Wendland(1, 0.8))


@st.composite
def lattice_designs(draw):
    """Up to 8 distinct points of a 16-point (1-D) or 8x8 (2-D) lattice on
    the unit box, latent values in [-3, 3] and probe points that include
    the design itself."""
    dim = draw(st.sampled_from([1, 2]))
    per_dim = 16 if dim == 1 else 8
    cells = draw(st.lists(st.integers(0, per_dim ** dim - 1), min_size=1,
                          max_size=8, unique=True))
    X = np.stack(np.unravel_index(np.array(cells), (per_dim,) * dim), axis=1)
    X = X / (per_dim - 1.0)
    z = np.array(draw(st.lists(st.floats(-3, 3), min_size=len(cells),
                               max_size=len(cells))))
    axis = np.linspace(0.0, 1.0, 33 if dim == 1 else 9)
    probe = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), -1).reshape(-1, dim)
    return X, z, np.vstack([probe, X])


def assert_moments_close(moments, dense_state, P, resid):
    kappa = np.linalg.cond(dense_state.chol) ** 2
    dense = gp.GridPosterior(dense_state, P)
    scale = max(1.0, float(np.max(np.abs(resid))))
    assert np.allclose(moments[0], dense.mean, rtol=0,
                       atol=MEAN_TOL * EPS * kappa * scale)
    assert np.allclose(moments[1], dense.var, rtol=0, atol=VAR_TOL * EPS * kappa)


@given(kernel=st.sampled_from(PROPERTY_KERNELS), design=lattice_designs(),
       m=st.floats(-2, 2))
def test_grid_posterior_matches_dense_posterior(kernel, design, m):
    X, z, P = design
    mean = ConstantMean(m)
    state = gp.empty_state(kernel, mean, X.shape[1])
    post = gp.GridPosterior(state, P, capacity=len(X))
    assert np.array_equal(post.mean, mean(P))
    assert np.array_equal(post.var, np.full(len(P), kernel.sup_diag()))
    first = len(P) - len(X)  # P ends with the design
    for k in range(1, len(X) + 1):
        state = post.add(first + k - 1, z[k - 1])
        assert post.state is state and state.n == k
        dense = gp.build_state(kernel, mean, X[:k], z[:k])
        assert_moments_close((post.mean, post.var), dense, P, z[:k] - m)
    # the chain of adds agrees with one construction on the chained state
    assert_moments_close((post.mean, post.var), state, P, z - m)


@given(kernel=st.sampled_from(PROPERTY_KERNELS), design=lattice_designs(),
       m=st.floats(-2, 2))
def test_extend_chain_equals_build_state(kernel, design, m):
    # one chain of one-point posteriors, each added to once, and one
    # posterior on the design grown by index
    X, z, P = design
    mean = ConstantMean(m)
    chain = grid_chain = gp.empty_state(kernel, mean, X.shape[1])
    post = gp.GridPosterior(grid_chain, X, capacity=len(X))
    for i, (xi, zi) in enumerate(zip(X, z)):
        chain = gp.GridPosterior(chain, xi, capacity=1).add(0, zi)
        grid_chain = post.add(i, zi)
    batch = gp.build_state(kernel, mean, X, z)
    kappa = np.linalg.cond(batch.chol) ** 2
    scale = max(1.0, float(np.max(np.abs(z - m))))
    for state in (chain, grid_chain):
        assert np.array_equal(state.X, batch.X)
        assert np.array_equal(state.z, batch.z)
        assert state.jitter_used == batch.jitter_used
        assert np.allclose(state.chol, batch.chol, rtol=0,
                           atol=VAR_TOL * EPS * kappa)
        assert np.allclose(state.beta, batch.beta, rtol=0,
                           atol=MEAN_TOL * EPS * kappa * scale)
        post = gp.GridPosterior(state, P)
        assert_moments_close((post.mean, post.var), batch, P, z - m)


def test_grid_posterior_keeps_the_floor_check():
    state, X, _ = make_state(n=3)
    post = gp.GridPosterior(state, X)
    assert np.all(post.var >= 0.0)
    # a corrupted Cholesky row drives the variance far below zero
    chol = state.chol.copy()
    chol[2, :2] *= 10.0
    broken = gp.GpState(kernel=state.kernel, mean=state.mean, X=state.X,
                        z=state.z, chol=chol, jitter_used=state.jitter_used,
                        beta=state.beta)
    with pytest.raises(NumericalDegradationError):
        gp.GridPosterior(broken, X)


def test_grid_posterior_builds_from_one_kernel_block(monkeypatch):
    state, _, _ = make_state(n=6)
    calls = []
    pairwise = Matern.pairwise

    def counting(self, X, Y):
        calls.append((len(X), len(Y)))
        return pairwise(self, X, Y)

    monkeypatch.setattr(Matern, "pairwise", counting)
    P = np.linspace(0, 1, 11)[:, None]
    post = gp.GridPosterior(state, P)
    assert calls == [(6, 11)]
    assert post.state is state


def p_greedy_chain(post, steps, candidates):
    """`steps` P-greedy steps on the first `candidates` points of `post`,
    each chosen index and latent value yielded after `post` adds them."""
    for _ in range(steps):
        index = int(np.argmax(post.var[:candidates]))
        z = float(np.sin(7.0 * index))
        post.add(index, z)
        yield index, z


@pytest.mark.parametrize("a, b, dim", [(128, 64, 1), (512, 256, 1), (4096, 4096, 2)],
                         ids=["128+64", "512+256", "4096+4096"])
def test_stacked_posterior_equals_separate_ones(a, b, dim):
    # the engine's one posterior on [grid; nodes] at its widths: its grid
    # part is the posterior on the grid alone, and both parts are those of
    # the posterior on [nodes; grid], bit for bit
    rng = np.random.default_rng(a + b)
    A, B = rng.uniform(size=(a, dim)), rng.uniform(size=(b, dim))
    state = gp.empty_state(Matern(2.5, 0.3), ConstantMean(5.0), dim)
    stacked, alone, flipped = (gp.GridPosterior(state, P, capacity=12)
                               for P in (np.vstack([A, B]), A, np.vstack([B, A])))
    held = stacked.mean
    order = np.r_[b:a + b, :b]  # [A; B] within [B; A]
    for index, z in p_greedy_chain(stacked, 12, a):
        alone.add(index, z)
        flipped.add(index + b, z)
        assert np.array_equal(stacked.mean[:a], alone.mean)
        assert np.array_equal(stacked.var[:a], alone.var)
        assert np.array_equal(stacked.mean, flipped.mean[order])
        assert np.array_equal(stacked.var, flipped.var[order])
    assert stacked.state.n == 12
    assert np.array_equal(alone.state.chol, stacked.state.chol)
    assert np.array_equal(flipped.state.chol, stacked.state.chol)
    # the mean is updated in place
    assert held is stacked.mean
