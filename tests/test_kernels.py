import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist
from scipy.special import gamma as gamma_fn, kv

from abqlab import config, kernels
from abqlab.domain import Domain, TensorGrid, quadrature_blocks
from abqlab.exceptions import DomainError, NumericalDegradationError
from abqlab.kernels import (
    InverseMultiquadric,
    Matern,
    RatePrediction,
    SquaredExponential,
    Wendland,
    chol_with_jitter,
    predicted_rate,
    solve_lower,
    sqdist,
)


def bessel_matern(nu, ell, r):
    """General Matern form via the modified Bessel function (oracle)."""
    r = np.asarray(r, dtype=float)
    u = np.sqrt(2 * nu) * r / ell
    out = np.ones_like(u)
    pos = u > 0
    out[pos] = (2 ** (1 - nu) / gamma_fn(nu)) * u[pos] ** nu * kv(nu, u[pos])
    return out


MATERN_CLOSED_FORMS = {
    0.5: lambda u: np.exp(-u),
    1.5: lambda u: (1 + u) * np.exp(-u),
    2.5: lambda u: (1 + u + u ** 2 / 3) * np.exp(-u),
    3.5: lambda u: (1 + u + 2 * u ** 2 / 5 + u ** 3 / 15) * np.exp(-u),
}


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5])
def test_matern_matches_closed_form(nu):
    ell = 0.37
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 3, size=(40, 2))
    Y = rng.uniform(0, 3, size=(30, 2))
    u = np.sqrt(2 * nu) * np.linalg.norm(X[:, None, :] - Y[None, :, :], axis=2) / ell
    assert np.allclose(Matern(nu, ell).pairwise(X, Y), MATERN_CLOSED_FORMS[nu](u),
                       rtol=1e-14, atol=0)


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5])
def test_matern_pairwise_is_horner_in_two_buffers(nu):
    rng = np.random.default_rng(9)
    X = rng.uniform(0, 1, size=(20_000, 2))
    Y = rng.uniform(0, 1, size=(50, 2))
    # reference: the Horner form with u, exp(-u) and the polynomial in
    # three separate blocks; the same operations in the same order
    u = cdist(X, Y) * (np.sqrt(2 * nu) / 0.3)
    coefs = kernels._matern_coefs(int(nu - 0.5))
    poly = np.full(u.shape, coefs[-1])
    for c in coefs[-2::-1]:
        poly = poly * u + c
    expected = poly * np.exp(-u)
    block = u.nbytes
    del u, poly
    tracemalloc.start()
    try:
        K = Matern(nu, 0.3).pairwise(X, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(K, expected)
    assert peak < 2.5 * block


def test_squared_exponential_values():
    k = SquaredExponential(gamma=0.5)
    assert k.pairwise([[0.3]], [[0.3]])[0, 0] == pytest.approx(1.0)
    assert k.pairwise([[0.0]], [[0.5]])[0, 0] == pytest.approx(np.exp(-1.0))


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5])
def test_matern_matches_bessel_oracle(nu):
    ell = 0.37
    k = Matern(nu=nu, ell=ell)
    r = np.linspace(1e-4, 2.0, 200)
    ours = k.pairwise(np.zeros((1, 1)), r[:, None])[0]
    oracle = bessel_matern(nu, ell, r)
    assert np.max(np.abs(ours - oracle)) < 1e-6


def test_matern_rejects_generic_nu():
    with pytest.raises(ValueError):
        Matern(nu=1.0)


def test_kernels_positive_definite_on_distinct_points():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, size=(12, 2))
    for k in (SquaredExponential(0.6), Matern(1.5, 0.4),
              InverseMultiquadric(0.5, 1.0), Wendland(1, 0.8)):
        w = np.linalg.eigvalsh(k.pairwise(X, X))
        assert w.min() > -1e-10 * w.max()


def test_wendland_compact_support_and_values():
    k = Wendland(smoothness_index=1, radius=0.5)
    assert k.pairwise([[0.0]], [[0.6]])[0, 0] == 0.0
    # t = 1 - r = 0.5, value = t^4 (4 r + 1) = 0.0625 * 3
    assert k.pairwise([[0.0]], [[0.25]])[0, 0] == pytest.approx(0.1875)
    with pytest.raises(ValueError):
        Wendland(smoothness_index=3)


def test_gram_bitwise_symmetric():
    # a design's Gram matrix is pairwise(X, X), not mirrored: sqdist negates
    # each gap exactly and every family is elementwise in the squared
    # distance; a family whose distances round its two arguments differently,
    # such as |x|^2 - 2 x.y + |y|^2 summed in that order, fails here
    rng = np.random.default_rng(1)
    for family, cls in config._KERNELS.items():
        for dim in [d for d in (1, 2, 3, 5) if d <= cls.max_dim]:
            for n in (2, 17, 40):
                X = rng.uniform(0, 1, size=(n, dim))
                K = cls().pairwise(X, X)
                assert np.array_equal(K, K.T), (family, dim, n)


def test_chol_with_jitter_reconstructs():
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, size=(8, 1))
    K = Matern(2.5, 0.3).pairwise(X, X)
    L, jitter = chol_with_jitter(K)
    assert np.allclose(L @ L.T, K + jitter * np.eye(8), atol=1e-12)
    assert jitter <= 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_chol_with_jitter_rejects_non_finite_gram_at_once(monkeypatch, bad):
    attempts = []
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda *args, **kw: attempts.append(args))
    K = np.eye(3)
    K[0, 1] = K[1, 0] = bad
    with pytest.raises(NumericalDegradationError, match="non-finite"):
        chol_with_jitter(K)
    assert attempts == []


def test_chol_with_jitter_doubles_until_the_factor_exists():
    # eigenvalues 2 + 5e-12 and -5e-12: jitter 1e-12, 2e-12 and 4e-12 fail,
    # 8e-12 is the first above 5e-12
    K = np.array([[1.0, 1.0 + 5e-12], [1.0 + 5e-12, 1.0]])
    L, jitter = chol_with_jitter(K)
    assert jitter == 8e-12
    assert np.allclose(L @ L.T, K + jitter * np.eye(2), rtol=0, atol=1e-15)


def test_chol_with_jitter_names_the_largest_jitter_it_tried(monkeypatch):
    # eigenvalue -1: no jitter of the policy repairs it
    tried = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda A: tried.append(A[0, 0] - 1.0) or cholesky(A))
    with pytest.raises(NumericalDegradationError, match=r"up to 1\.024e-09$"):
        chol_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert len(tried) == kernels.JITTER_DOUBLINGS + 1
    assert tried[-1] == pytest.approx(1e-12 * 2 ** kernels.JITTER_DOUBLINGS)


@st.composite
def point_pairs(draw):
    """Two point sets in the same dimension d = 1..5, one of 1 to 6 points
    and the other of 1 to 40, in either order: tall pairs take sqdist's
    transposed branch."""
    d = draw(st.integers(1, 5))
    coords = st.floats(-10, 10, allow_nan=False)
    X = draw(arrays(float, (draw(st.integers(1, 6)), d), elements=coords))
    Y = draw(arrays(float, (draw(st.integers(1, 40)), d), elements=coords))
    return (Y, X) if draw(st.booleans()) else (X, Y)


@given(point_pairs())
@example((np.array([[0.1, 0.7]]), np.array([[0.3, 0.2], [0.9, 0.4]])))
@example((np.array([[0.1], [0.5], [0.8]]), np.array([[0.3]])))
def test_sqdist_is_cdist_bit_for_bit(pair):
    X, Y = pair
    D = sqdist(X, Y)
    assert D.flags.c_contiguous
    assert np.array_equal(D, cdist(X, Y, "sqeuclidean"))
    assert np.array_equal(np.sqrt(D), cdist(X, Y))


# every family, each Matern nu, and Wendland where it is defined
def horner_in_u(kernel, X, Y):
    """Matern.pairwise's earlier formula: u = sqrt(2 nu) r / ell, Horner from
    a block full of c_p with u * h + c, then exp of -u."""
    u = np.sqrt(sqdist(X, Y)) * (np.sqrt(2 * kernel.nu) / kernel.ell)
    coefs = kernels._matern_coefs(int(kernel.nu - 0.5))
    poly = np.full(u.shape, coefs[-1])
    for c in coefs[-2::-1]:
        poly = poly * u + c
    return poly * np.exp(-u)


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5])
def test_matern_in_negated_u_equals_the_horner_sum_in_u(nu):
    # IEEE negation is exact, so c - h (-u) is c + h u bit for bit, r = 0
    # (a design point in both arguments, or on the grid) included
    rng = np.random.default_rng(int(2 * nu))
    grid = TensorGrid([np.linspace(0.0, 1.0, 9), np.linspace(-0.5, 0.5, 7)])
    for ell in (0.05, 0.4, 3.0):
        kernel = Matern(nu, ell)
        X = rng.uniform(-0.5, 1.5, size=(30, 2))
        Y = np.vstack([rng.uniform(-0.5, 1.5, size=(200, 2)), X[:4]])
        on_grid = np.vstack([X[:3], grid.points()[[0, 17, 62]]])
        for a, b, pb in ((X, Y, Y), (on_grid, grid, grid.points())):
            K = kernel.pairwise(a, b)
            assert np.array_equal(K, horner_in_u(kernel, a, pb)), (nu, ell)
        assert np.sum(K == 1.0) >= 3


GRID_KERNELS = [SquaredExponential(0.6), InverseMultiquadric(0.5, 1.0),
                *(Matern(nu, 0.4) for nu in (0.5, 1.5, 2.5, 3.5)),
                *(Wendland(k, 0.8) for k in (0, 1, 2))]


def slab_grids(dim):
    """The slabs of the 3-node rule on a box in `dim` dims, for blocks that
    give one whole slab, runs of one node of axis 0, and, for each axis k,
    runs of two of axis k whose last one is partial, under one node of each
    axis before it."""
    dom = Domain(tuple(-0.3 * k for k in range(dim)), tuple(0.5 + k for k in range(dim)))
    blocks = [3 ** dim, 3 ** (dim - 1), *(2 * 3 ** (dim - 1 - k) for k in range(dim))]
    for block in blocks:
        for grid, _ in quadrature_blocks(dom, 3, block):
            yield block, grid


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_sqdist_and_pairwise_on_a_grid_equal_its_points(dim):
    # the gap tables add each axis's squared gaps in axis order, a slab's
    # one-node axes included: the expanded points' additions, so the blocks
    # are equal bit for bit, for every design size, the empty one (a
    # budget-0 run) included
    rng = np.random.default_rng(dim)
    seen = set()
    for block, grid in slab_grids(dim):
        # a sub-box: one node on each axis before the cut axis, a run of
        # the cut axis, and the whole axes after it
        lens = [len(a) for a in grid.axes]
        cut = len(lens)
        while cut and lens[cut - 1] == 3:
            cut -= 1
        head = lens[:cut]
        assert head[:-1] == [1] * (cut - 1) and all(0 < run < 3 for run in head[-1:]), lens
        seen.add((cut, len(grid) < block))
        pts = grid.points()
        for n in (0, 1, 7):
            X = rng.uniform(-1.0, 4.0, size=(n, dim))
            D = sqdist(X, grid)
            assert D.flags.c_contiguous and D.shape == (n, len(pts))
            assert np.array_equal(D, cdist(X, pts, "sqeuclidean")), (block, n)
            for kernel in GRID_KERNELS:
                if dim <= kernel.max_dim:
                    assert np.array_equal(kernel.pairwise(X, grid),
                                          kernel.pairwise(X, pts)), (kernel, n)
    # a whole slab, and runs of each axis, whole and partial
    assert seen == {(0, False), *((k, p) for k in range(1, dim + 1) for p in (False, True))}


def test_sqdist_rejects_mismatched_dimensions():
    with pytest.raises(ValueError, match="dimension"):
        sqdist(np.zeros((3, 2)), np.zeros((4, 3)))


# The Grams below are the first n points of an 81-point lattice design, n
# below, at and past one row block of solve_lower and up to 81, so every
# off-diagonal block is used; one column is what a one-point
# `gp.GridPosterior` solves. The gap to LAPACK's solve is held to the kappa-scaled
# tolerance that tests/test_gp.py states, kappa = cond(L)^2 the condition
# number of the jittered Gram matrix.
EPS = np.finfo(float).eps
MEAN_TOL = 1e3
LATTICE = np.stack(np.meshgrid(*[np.linspace(0, 1, 9)] * 2, indexing="ij"),
                   -1).reshape(-1, 2)


@pytest.mark.parametrize("kernel", [Matern(2.5, 0.1), SquaredExponential(0.1),
                                    Wendland(1, 0.3), InverseMultiquadric(0.5, 0.1)])
@pytest.mark.parametrize("shape", [(81, 1), (81, 7), (81, kernels.SOLVE_CHUNK + 5)])
def test_solve_lower_matches_lapack_triangular_solve(kernel, shape):
    B = np.random.default_rng(3).normal(size=shape)
    for n in (1, kernels.SOLVE_BLOCK - 1, kernels.SOLVE_BLOCK, kernels.SOLVE_BLOCK + 1,
              81):
        L, _ = chol_with_jitter(kernel.pairwise(LATTICE[:n], LATTICE[:n]))
        expected = solve_triangular(L, B[:n], lower=True)
        kappa = np.linalg.cond(L) ** 2
        scale = max(1.0, float(np.max(np.abs(expected))))
        out = B[:n].copy()
        assert solve_lower(L, out) is out
        assert np.allclose(out, expected, rtol=0, atol=MEAN_TOL * EPS * kappa * scale), n


def test_column_slices_solved_with_one_factors_inverses_equal_one_solve():
    # the report solves a point set chunk by chunk, or slab by slab, with the
    # inverses of one factor; slices of whole SOLVE_CHUNKs, the last one
    # short, are bit for bit the columns of one solve over all of them
    L, _ = chol_with_jitter(Matern(2.5, 0.1).pairwise(LATTICE, LATTICE))
    inverses = kernels.block_inverses(L)
    B = np.random.default_rng(4).normal(size=(81, 3 * kernels.SOLVE_CHUNK + 5))
    whole = solve_lower(L, B.copy())
    for width in (kernels.SOLVE_CHUNK, 2 * kernels.SOLVE_CHUNK):
        sliced = np.hstack([solve_lower(L, B[:, s:s + width].copy(), inverses)
                            for s in range(0, B.shape[1], width)])
        assert np.array_equal(sliced, whole), width


def test_predicted_rate_forms():
    p = predicted_rate(SquaredExponential(), 2)
    assert p.model == "exponential" and p.exponent == pytest.approx(0.5)
    p = predicted_rate(Matern(1.5, 0.3), 1)
    # r = nu + d/2 = 2, slope -(r/d - 1/2) = -1.5
    assert p.model == "polynomial" and p.exponent == pytest.approx(-1.5)
    p = predicted_rate(Wendland(1, 0.5), 2)
    # r = d/2 + k + 1/2 = 2.5, slope -0.75
    assert p.exponent == pytest.approx(-0.75)


def test_predicted_rate_vacuous_order_rejected():
    class Rough:
        def smoothness(self, d):
            return ("finite", d / 2)

    with pytest.raises(DomainError):
        predicted_rate(Rough(), 2)


def test_rate_prediction_regressors():
    n = np.array([4.0, 9.0])
    assert np.allclose(RatePrediction("exponential", 0.5).regressor(n), [2.0, 3.0])
    assert np.allclose(RatePrediction("polynomial", -1.0).regressor(n), np.log(n))
