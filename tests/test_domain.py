import numpy as np
import pytest

from abqlab.domain import (
    BLOCK_POINTS,
    PROBE_POINTS,
    AffineMean,
    ConstantMean,
    Domain,
    MeanFunction,
    SyntheticIntegrand,
    TabulatedDensity,
    TruncatedGaussianDensity,
    UniformDensity,
    _gauss_legendre,
    _log_gauss_mass,
    _log_ndtr,
    _ndtr,
    quadrature_blocks,
    quadrature_nodes,
    rkhs_norm,
    weighted_integrals,
)
from abqlab.exceptions import BudgetExceededError
from abqlab.kernels import Matern, SquaredExponential
from abqlab.transforms import Identity


def test_domain_rejects_degenerate_box():
    with pytest.raises(ValueError):
        Domain((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        Domain((0.0,), (1.0, 2.0))


def test_domain_geometry():
    dom = Domain((0.0, -1.0), (2.0, 1.0))
    assert dom.dim == 2
    assert dom.volume == pytest.approx(4.0)
    assert np.allclose(dom.widths, [2.0, 2.0])
    assert dom.contains([[1.0, 0.0]])[0]
    assert not dom.contains([[3.0, 0.0]])[0]


def test_uniform_grid_shapes_and_midpoints():
    dom = Domain((0.0,), (1.0,))
    g = dom.uniform_grid(5)
    assert g.shape == (5, 1)
    assert g[0, 0] == 0.0 and g[-1, 0] == 1.0
    dom2 = Domain((0.0, 0.0), (1.0, 1.0))
    assert dom2.uniform_grid(3).shape == (9, 2)


@pytest.mark.parametrize("dim, per_dim", [(1, 512), (2, 256), (3, 40), (4, 16), (5, 9)])
def test_probe_grid_has_a_total_budget_and_the_corners(dim, per_dim):
    dom = Domain(tuple(-1.0 - i for i in range(dim)),
                 tuple(2.0 + i for i in range(dim)))
    grid = dom.probe_grid()
    assert grid.shape == (per_dim ** dim, dim)
    assert grid.shape[0] <= PROBE_POINTS
    corners = {tuple(dom.lower), tuple(dom.upper)}
    assert corners <= set(map(tuple, grid))


def test_densities_normalize():
    dom = Domain((0.0, 0.0), (2.0, 2.0))
    for dens in (
        UniformDensity(dom),
        TruncatedGaussianDensity(dom, center=[1.0, 0.5], scale=[0.5, 1.0]),
    ):
        (mass,) = weighted_integrals(dom, 64, dens, lambda P: np.ones(len(P)),
                                     functions=1)
        assert mass == pytest.approx(1.0, abs=1e-10)
        assert dens.strictly_positive


@pytest.mark.parametrize("lower, upper, center, scale", [
    (0.0, 1.0, 0.5, 0.2),     # central: the box holds the centre
    (0.0, 1.0, 0.3, 5.0),     # central, nearly flat
    (0.0, 1.0, -2.0, 0.3),    # centre left of the box: right tail
    (0.0, 1.0, -2.0, 2.0),    # right tail, Phi(a) a fair share of Phi(b)
    (-1.0, 2.0, -40.0, 2.0),  # far right tail
    (0.0, 1.0, 3.0, 0.3),     # centre right of the box: left tail
    (0.0, 1.0, 3.0, 2.0),
    (-1.0, 2.0, 8.0, 0.7),
    (0.0, 1.0, 1.0, 0.1),     # centre on a box edge
])
def test_truncated_gaussian_matches_scipy_truncnorm(lower, upper, center, scale):
    from scipy.stats import truncnorm

    dom = Domain((lower, 0.0), (upper, 1.0))
    dens = TruncatedGaussianDensity(dom, center=[center, 0.5], scale=[scale, 0.25])
    rng = np.random.default_rng(0)
    xs = np.concatenate([rng.uniform(lower - 0.5, upper + 0.5, 400),
                         [lower, upper, lower - 1e-9, upper + 1e-9]])
    X = np.column_stack([xs, rng.uniform(0.0, 1.0, xs.size)])
    want = np.ones(xs.size)
    for i, (c, s) in enumerate(((center, scale), (0.5, 0.25))):
        a = (dom.lower[i] - c) / s
        b = (dom.upper[i] - c) / s
        want *= truncnorm.pdf(X[:, i], a, b, loc=c, scale=s)
    got = dens(X)
    outside = (xs < lower) | (xs > upper)
    assert np.all(got[outside] == 0.0) and np.all(want[outside] == 0.0)
    assert np.all(got[~outside] > 0.0)
    assert np.all(np.abs(got - want) <= 2e-15 * want)


def test_normal_cdfs_match_scipy_special():
    from scipy.special import log_ndtr, ndtr

    xs = np.linspace(-60.0, 30.0, 90_001)
    tiny = np.finfo(float).tiny
    for ours, theirs in ((_ndtr, ndtr), (_log_ndtr, log_ndtr)):
        want = theirs(xs)
        gap = np.abs(np.array([ours(x) for x in xs]) - want)
        normal = np.abs(want) >= tiny
        assert np.all(gap[normal] <= 1e-13 * np.abs(want[normal]))
    # below -1 both log CDFs subtract the same rounded t t from log(erfcx(-t) / 2)
    left = xs[xs < -1.0]
    want = log_ndtr(left)
    gap = np.abs(np.array([_log_ndtr(x) for x in left]) - want)
    assert np.all(gap <= 8 * np.spacing(np.abs(want)))


def test_log_gauss_mass_matches_the_scipy_normaliser_on_random_boxes():
    from scipy.special import log_ndtr, ndtr

    def reference(a, b):
        """The normaliser on scipy.special, with the two CDFs it combines
        and the ulps by which each may differ from ours: below -1 the log
        CDFs share one formula, while cephes' ndtr rounds t^2 inside
        exp(-t^2), which moves Phi(x) by up to x^2 ulps."""
        if b <= 0:
            log_b = log_ndtr(b)
            return log_b + np.log1p(-np.exp(log_ndtr(a) - log_b)), ((a, 1.0), (b, 1.0))
        if a > 0:
            return reference(-b, -a)
        return np.log1p(-ndtr(a) - ndtr(-b)), ((a, 1.0 + a * a), (-b, 1.0 + b * b))

    rng = np.random.default_rng(0)
    n = 10_000
    centre = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-3.0, np.log10(900.0), n)
    width = 10 ** rng.uniform(-4.0, 3.0, n)
    lo = np.clip(centre - width / 2, -900.0, 900.0)
    hi = np.clip(centre + width / 2, -900.0, 900.0)
    tiny = np.finfo(float).tiny
    for a, b in zip(lo, hi):
        if a >= b:
            continue
        want, cdfs = reference(a, b)
        # the result moves by Phi(x) / mass times each CDF's relative error;
        # scipy's ndtr flushes Phi(x) to 0 below x = -37.6, hence the floor
        cond = sum(np.exp(log_ndtr(x) - want) * ulps for x, ulps in cdfs)
        # below _NARROW_BOX ours integrates phi, while scipy's difference of
        # CDFs cancels: on these boxes it is at most 3.5 / s ulps from
        # 400-digit mpmath (463 ulps at [25.11692, 25.11704], s = 2.9e-3)
        s = (b - a) * max(1.0, abs(a), abs(b))
        scipy_error = 8 * np.spacing(abs(want)) / s
        tol = 128 * np.spacing(abs(want) + cond) + scipy_error + 2 * tiny
        assert abs(_log_gauss_mass(a, b) - want) <= tol, (a, b)


@pytest.mark.parametrize("a, b, want", [
    (-2.83305, -2.83291, -13.80569450302172),
    (1.2, 1.2003, -9.750846626111505),
    (-30.0, -29.99995, -460.8216759923744),
    (29.99995, 30.0, -460.8216759923744),
    (-1e-3, 5e-4, -7.421228829078636),
    (-30.0, -29.9999, -460.1277785318511),
    (25.116922834365383, 25.117038667835466, -325.41365620770284),
])
def test_log_gauss_mass_is_accurate_on_narrow_boxes(a, b, want):
    # log(Phi(b) - Phi(a)) by 400-digit mpmath, rounded to double; the
    # difference of CDFs is 1722, 291, 936, 936, 34, 339 and 463 ulps off
    # on these boxes
    assert abs(_log_gauss_mass(a, b) - want) <= 2 * np.spacing(abs(want))


def test_tabulated_density_matches_the_multilinear_interpolant():
    from scipy.interpolate import RegularGridInterpolator

    dom = Domain((0.0, -1.0), (2.0, 1.0))
    values = np.array([[1.0, 2.0, 0.5], [3.0, 0.0, 1.0]])
    X = np.random.default_rng(1).uniform(dom.lower, dom.upper, (200, 2))
    want = RegularGridInterpolator(
        [np.linspace(0.0, 2.0, 2), np.linspace(-1.0, 1.0, 3)], values)(X)
    assert TabulatedDensity(dom, values)(X).tobytes() == want.tobytes()
    assert TabulatedDensity(dom, values)(np.array([[2.0, 0.0]]))[0] == 0.0


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_tabulated_density_matches_scipy_on_points_knots_and_faces(dim):
    # corner values times their weights left to right, summed in
    # itertools.product order: scipy's 2-D fast path and its 1-D product,
    # so bit-equal in d <= 2; from d = 3 scipy multiplies the weights first
    from scipy.interpolate import RegularGridInterpolator

    rng = np.random.default_rng(dim)
    for _ in range(40 if dim <= 2 else 10):
        lower = rng.uniform(-2.0, 1.0, dim)
        dom = Domain(lower, lower + rng.uniform(0.1, 3.0, dim))
        values = rng.uniform(0.0, 2.0, rng.integers(2, 7, dim))
        dens = TabulatedDensity(dom, values)
        inside = rng.uniform(dom.lower, dom.upper, (200, dim))
        # each face point has one coordinate on the lower or upper face
        faces = inside.copy()
        axis, side = rng.integers(0, dim, 200), rng.integers(0, 2, 200)
        faces[np.arange(200), axis] = np.array([dom.lower, dom.upper])[side, axis]
        knots = np.stack(np.meshgrid(*dens.axes, indexing="ij"), -1).reshape(-1, dim)
        X = np.concatenate([inside, faces, knots])
        want = RegularGridInterpolator(dens.axes, values)(X)
        got = dens(X)
        if dim <= 2:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 2 ** dim * np.spacing(values.max())
        assert np.array_equal(dens(knots), values.reshape(-1))


def test_tabulated_density_rejects_points_outside_its_box():
    dens = TabulatedDensity(Domain((0.0, -1.0), (2.0, 1.0)), np.ones((3, 2)))
    for x in ([2.5, 0.0], [1.0, -1.5], [np.nan, 0.0]):
        with pytest.raises(ValueError, match="outside"):
            dens(np.array([[1.0, 0.0], x]))


def test_tabulated_density_interpolates_and_flags_positivity():
    dom = Domain((0.0,), (1.0,))
    dens = TabulatedDensity(dom, np.array([1.0, 3.0]))
    assert dens(np.array([[0.5]]))[0] == pytest.approx(2.0)
    assert dens.strictly_positive
    dens0 = TabulatedDensity(dom, np.array([0.0, 1.0]))
    assert not dens0.strictly_positive
    with pytest.raises(ValueError):
        TabulatedDensity(dom, np.array([-1.0, 1.0]))


DENSITY_BOX = Domain((-1.0, 0.0, 0.5), (2.0, 1.0, 0.75))


def density_cases():
    """Each density family on the first d axes of DENSITY_BOX, d = 1..3; the
    truncated Gaussians have a centre inside and one outside the box."""
    rng = np.random.default_rng(7)
    for d in (1, 2, 3):
        dom = Domain(DENSITY_BOX.lower[:d], DENSITY_BOX.upper[:d])
        yield UniformDensity(dom)
        for center in ([0.3, 0.6, 0.7], [3.0, -0.5, 0.6]):
            yield TruncatedGaussianDensity(dom, center=center[:d],
                                           scale=[0.8, 0.3, 0.05][:d])
        yield TabulatedDensity(dom, rng.uniform(0.5, 2.0, size=(5, 4, 3)[:d]))


@pytest.mark.parametrize("dens", list(density_cases()),
                         ids=lambda q: f"{type(q).__name__}-{q.domain.dim}")
def test_density_bounds_hold_on_random_points_and_pairs(dens):
    dom = dens.domain
    rng = np.random.default_rng(11)
    X = rng.uniform(dom.lower, dom.upper, size=(20_000, dom.dim))
    # close pairs probe the slope, far ones the range
    Y = np.clip(X + rng.normal(scale=rng.choice([1e-3, 0.3], size=(len(X), 1)),
                               size=X.shape), dom.lower, dom.upper)
    inf, sup, lip = dens.bounds()
    qx, qy = dens(X), dens(Y)
    assert np.all((inf * (1 - 1e-12) <= qx) & (qx <= sup * (1 + 1e-12)))
    gap = np.linalg.norm(X - Y, axis=1)
    assert np.all(np.abs(qx - qy) <= lip * gap + 1e-12 * sup)
    if isinstance(dens, TruncatedGaussianDensity):
        # the supremum is the density at the centre clipped to the box, the
        # infimum at the corner farthest from it in standard units
        peak = np.clip(dens.center, dom.lower, dom.upper)[None, :]
        assert dens(peak)[0] == pytest.approx(sup, rel=1e-12)
        corners = dom.uniform_grid(2)
        assert inf == pytest.approx(np.min(dens(corners)), rel=1e-12)
    if isinstance(dens, TabulatedDensity):
        # a multilinear interpolant takes its extremes at the nodes
        assert (inf, sup) == (np.min(dens.values), np.max(dens.values))
    if isinstance(dens, UniformDensity):
        assert (inf, sup, lip) == (1.0 / dom.volume, 1.0 / dom.volume, 0.0)


def test_tabulated_density_infimum_is_clamped_like_its_values():
    # a node below 1e-300 reads 0 in __call__, and so does the infimum
    dom = Domain((0.0,), (1.0,))
    tiny = TabulatedDensity(dom, [1e-310, 1.0, 2.0])
    assert tiny(np.array([[0.0]]))[0] == 0.0
    assert tiny.bounds()[:2] == (0.0, 2.0)


def test_mean_functions():
    assert ConstantMean(2.5)(np.zeros((3, 2)))[0] == 2.5
    m = AffineMean((1.0, -2.0), offset=0.5)
    assert m(np.array([[1.0, 1.0]]))[0] == pytest.approx(-0.5)


def test_mean_ranges_are_exact_over_the_box():
    dom = Domain((0.0, -1.0), (1.0, 2.0))
    assert ConstantMean(-2.5).range(dom) == (-2.5, -2.5)
    assert type(ConstantMean(3).range(dom)[0]) is float
    # the extremes sit at the corners (0, 2) and (1, -1)
    assert AffineMean((1.0, -2.0), offset=0.5).range(dom) == (-3.5, 3.5)
    # a mean that crosses zero between grid points: its range is the corners'
    crossing = AffineMean((1000.0,), offset=-500.5)
    assert crossing.range(Domain((0.0,), (1.0,))) == (-500.5, 499.5)
    with pytest.raises(NotImplementedError):
        MeanFunction().range(dom)


def test_synthetic_integrand_consistency():
    kernel = SquaredExponential(gamma=0.5)
    f = SyntheticIntegrand(
        centers=np.array([[0.3], [0.7]]), weights=np.array([1.0, -0.5]),
        prior_mean=ConstantMean(0.2), kernel=kernel, transform=Identity(),
    )
    X = np.linspace(0, 1, 7)[:, None]
    expect = 0.2 + kernel.pairwise(X, f.centers) @ np.array([1.0, -0.5])
    assert np.allclose(f.latent(X), expect)
    assert np.allclose(f(X), f.latent(X))  # identity warp
    assert np.allclose(f.g_tilde(X), expect - 0.2)


def test_rkhs_norm_single_center_closed_form():
    kernel = SquaredExponential(gamma=0.5)
    f = SyntheticIntegrand(
        centers=np.array([[0.4]]), weights=np.array([-0.7]),
        prior_mean=ConstantMean(0.0), kernel=kernel, transform=Identity(),
    )
    # ||w k(., y)|| = |w| sqrt(k(y, y))
    assert rkhs_norm(f) == pytest.approx(0.7)


def test_rkhs_norm_empty_expansion_is_zero():
    f = SyntheticIntegrand(
        centers=np.zeros((0, 1)), weights=np.zeros(0),
        prior_mean=ConstantMean(0.0), kernel=SquaredExponential(),
        transform=Identity(),
    )
    assert rkhs_norm(f) == 0.0
    assert np.allclose(f.g_tilde(np.array([[0.5]])), 0.0)


def test_quadrature_polynomial_exactness():
    dom = Domain((0.0,), (1.0,))
    (val,) = weighted_integrals(dom, 16, UniformDensity(dom), lambda P: P[:, 0] ** 2,
                                functions=1)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 64, 255, 256])
def test_gauss_legendre_is_numpys_rule_without_its_eigensolve(n):
    x, w = _gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    # each rule's nodes carry an absolute error of about 1e-17 (a few ulps
    # of a node near 0), so the gap is counted in ulps of the nodes in
    # [1/2, 1); leggauss's weights are within 2.2e-11 of a 40-digit
    # reference at n = 256
    assert np.all(np.abs(x - ref_x) <= 2 * np.spacing(0.5))
    assert np.all(np.abs(w / ref_w - 1) <= 1e-10)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert w.sum() == pytest.approx(2.0, rel=1e-14)
    # exact on x^(2k) for 2k < 2n, where the integral over [-1, 1] is 2 / (2k + 1)
    k = np.arange(n)
    moments = np.array([np.sum(w * x ** (2 * j)) for j in k])
    assert np.allclose(moments, 2.0 / (2 * k + 1), rtol=1e-12, atol=0)
    assert not (x.flags.writeable or w.flags.writeable)


def test_quadrature_budget_guard():
    dom = Domain((0.0,) * 3, (1.0,) * 3)
    with pytest.raises(BudgetExceededError):
        quadrature_nodes(dom, 500)



# d=3 on an uneven box: 48^3 nodes fill two slabs (a 48^2 tile under 28
# and then 20 leading coordinates) and 64^3 nodes fill four
BOX3 = Domain((-0.3, 0.0, 0.5), (1.0, 2.0, 0.75))
BOX2 = Domain((-0.3, 0.0), (1.0, 2.0))
BOX1 = Domain((0.5,), (0.75,))


def dense_rule(dom, resolution):
    """The tensor Gauss-Legendre rule built as one meshgrid, its weights
    multiplied in axis order."""
    x, w = _gauss_legendre(resolution)
    lo, hi = np.asarray(dom.lower), np.asarray(dom.upper)
    axes = [0.5 * (b - a) * x + 0.5 * (a + b) for a, b in zip(lo, hi)]
    wts = [0.5 * (b - a) * w for a, b in zip(lo, hi)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    weight = np.ones(pts.shape[0])
    for wm in np.meshgrid(*wts, indexing="ij"):
        weight *= wm.ravel()
    return pts, weight


# ids are resolution-slabs; a slab is a sub-box, a run of the cut axis
# crossed with the whole axes after it: in d=2 at 48, 20 rows of 48 under
# a block of 1000, then the 8 left over; in d=3 at 12 under a block of
# 100, each node of axis 0 with runs of 8 and 4 of axis 1's 12
@pytest.mark.parametrize("dom, resolution, block, sizes", [
    pytest.param(BOX1, 256, 128, [128, 128], id="256-2"),
    pytest.param(BOX2, 48, 1000, [960, 960, 384], id="48-3"),
    pytest.param(BOX2, 16, 256, [256], id="16-1"),
    pytest.param(BOX3, 48, BLOCK_POINTS, [28 * 48 ** 2, 20 * 48 ** 2], id="48-2"),
    pytest.param(BOX3, 64, BLOCK_POINTS, [16 * 64 ** 2] * 4, id="64-4"),
    pytest.param(BOX3, 12, 100, [96, 48] * 12, id="12-24"),
])
def test_quadrature_blocks_are_the_dense_rule(dom, resolution, block, sizes):
    pts, w = dense_rule(dom, resolution)
    nodes, weights = quadrature_nodes(dom, resolution)
    assert np.array_equal(nodes, pts) and np.array_equal(weights, w)
    blocks = list(quadrature_blocks(dom, resolution, block))
    assert [len(b) for b, _ in blocks] == sizes
    assert all(v.shape == (len(b),) for b, v in blocks)
    assert np.array_equal(np.concatenate([b.points() for b, _ in blocks]), pts)
    assert np.array_equal(np.concatenate([v for _, v in blocks]), w)


# 512 functions give slabs of at most 128 nodes: at 24 nodes per dim,
# runs of 5, 5, 5, 5 and 4 of axis 1 under each node of axis 0
@pytest.mark.parametrize("resolution, functions", [
    pytest.param(48, 1, id="48"),
    pytest.param(64, 1, id="64"),
    pytest.param(24, 512, id="24-512"),
])
def test_blocked_weighted_integral_matches_a_one_shot_sum(resolution, functions):
    f = SyntheticIntegrand(
        centers=np.array([[0.2, 0.5, 0.6], [0.7, 1.4, 0.7]]),
        weights=np.array([0.6, -0.4]), prior_mean=ConstantMean(2.0),
        kernel=Matern(2.5, 0.3), transform=Identity(),
    )
    pi = TruncatedGaussianDensity(BOX3, center=[0.3, 1.0, 0.6], scale=[0.5, 0.8, 0.2])
    pts, w = dense_rule(BOX3, resolution)
    dense = np.sum(w * f(pts) * pi(pts))
    (blocked,) = weighted_integrals(BOX3, resolution, pi, f, functions=functions)
    assert blocked == pytest.approx(dense, rel=1e-13)
